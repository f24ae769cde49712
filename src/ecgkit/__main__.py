"""``python -m ecgkit``: the ``ecgkit`` command without the installed script."""

from .cli import main

if __name__ == "__main__":
    main()
