"""ECG heartbeat classification toolkit.

Reads MIT-BIH style WFDB records, segments and normalizes heartbeats,
balances minority classes with a per-class GAN, trains four 1D deep
architectures on a small numpy autodiff kernel, fuses them into ensembles,
and writes evaluation reports with saliency maps.
"""

__version__ = "0.1.0"
