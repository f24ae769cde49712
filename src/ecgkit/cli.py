"""Command-line pipeline: ingest, augment, train, evaluate, ensemble, and
end-to-end reproduction.

Every command runs on one PipelineConfig: --config, with the flags that
name a config key applied; reproduce chains the stage functions the other
commands run.  Every subcommand, and every stage of reproduce, writes its
artifacts plus a run manifest recording the exact command, the config's
fingerprint, when the stage started and finished, and the produced files.
Each random stream derives from the config's master seed by stage path, so
stages never share randomness.  Jobs that share nothing, the
per-class GANs and the per-architecture trainings, run in forked worker
processes when the BLAS threads leave cores idle.  Each network runs only in
the job that trains it: a GAN job hands back its class's synthetic beats and
a training job the logits of the rows the ensemble fuses, so reproduce's own
process joins, fuses and reports without loading or running a model.
"""

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as tk
from .artifacts import write_json
from .beats import (CLASS_NAMES, BeatDataset, load_records_dir,
                    read_beats_csv, stratified_split, write_beats_csv)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (PipelineConfig, RunManifest, config_hash, derive_seed,
                     load_config)
from .ensemble import (ManifestEntry, build_strategy, fuse, load_manifest,
                       predict_classes, write_logits_csv, write_manifest)
from .errors import ConfigError, EcgkitError, IoError, ShapeError
from .gan import (balance_dataset, balance_deficits, balance_summary,
                  gan_train, synthesize)
from .gradcam import grad_cam
from .metrics import (DEFAULT_RESAMPLES, MIN_BOOTSTRAP_SAMPLES, MIN_RESAMPLES,
                      block_macro_f1, bootstrap_ci, evaluate_predictions)
from .models import ARCHITECTURES, MIN_INPUT_LEN, ModelDescriptor, build
from .report import render_report
from .training import train


@contextlib.contextmanager
def _stage(command, config, path):
    """Run the body as one stage on config: removes an earlier run's
    manifest at path, yields a manifest stamped before the body, for it to
    add the files it writes, and writes that manifest to path once the
    body returns; a body that raises leaves none.
    """
    manifest = RunManifest(command=command, config_hash=config_hash(config),
                           version=__version__, started_at=RunManifest.now())
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise IoError(f"cannot remove {path}: {exc}") from None
    yield manifest
    manifest.write(path)


def _blas_threads(cores):
    """Threads the BLAS of each process runs: OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, else one per core, as OpenBLAS itself reads them."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cores


def _worker_count(jobs):
    """Worker processes for `jobs` independent jobs: the cores over the
    BLAS threads each process runs, so the workers never oversubscribe the
    cores, and at most one per job.  The BLAS default of one thread per
    core gives one."""
    if not hasattr(os, "sched_getaffinity") or \
            "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(jobs, cores // _blas_threads(cores)))


_PARENT_POLL_S = 0.2

# the job a forked worker runs, set by its initializer
_worker_job = None


def _start_worker(job):
    """Keep job for the tasks to come, and exit once the parent is gone: a
    worker outliving its parent would wait on its task queue forever."""
    global _worker_job
    _worker_job = job
    parent = os.getppid()

    def watch_parent():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch_parent, daemon=True).start()


def _run_job(item):
    return _worker_job(item)


def _map_jobs(job, items):
    """[job(item) for item in items], the results in item order.

    With spare cores (see _worker_count) the jobs run in forked worker
    processes, which inherit job and everything it reads, so only the
    items and the results are pickled; a spawned worker would be sent the
    whole beat set, hundreds of MB at MIT-BIH scale.  Each worker keeps
    the BLAS thread count it inherits, so its bytes are those of the
    in-process loop.  The first failure in item order is raised here, once
    the jobs not yet started are cancelled and the running ones have ended.
    """
    items = list(items)
    workers = _worker_count(len(items))
    if workers == 1:
        return [job(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(job,)) as pool:
        futures = [pool.submit(_run_job, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _sibling(out_file, suffix):
    """The file beside out_file named <stem><suffix>."""
    out_file = Path(out_file)
    return out_file.parent / (out_file.stem + suffix)


def _select_rows(dataset, split_tag):
    """(X, y) of one split; a file with no split column counts whole."""
    tags = set(dataset.split.tolist())
    if tags == {"unassigned"}:
        return dataset.X, dataset.y
    rows = dataset.split == split_tag
    if not rows.any():
        raise ConfigError(f"no beats tagged {split_tag!r} in the input; "
                          f"found tags {sorted(tags)}")
    return dataset.X[rows], dataset.y[rows]


def _normalized_sources(dataset):
    """Collapse source tags to the two-value vocabulary of the beat files."""
    return BeatDataset(dataset.X, dataset.y, dataset.split,
                       np.where(dataset.source == "synthetic", "synthetic",
                                "real"))


def _confidence_intervals(y_true, y_pred, seed, n_resamples):
    cis = []
    if len(y_true) >= MIN_BOOTSTRAP_SAMPLES:
        correct = (y_pred == y_true).astype(np.float64)
        cis.append(bootstrap_ci(correct, lambda block: block.mean(axis=1),
                                n_resamples=n_resamples,
                                seed=derive_seed(seed, "ci/accuracy"),
                                name="accuracy"))
        pairs = np.stack([y_true, y_pred], axis=1)
        cis.append(bootstrap_ci(pairs, block_macro_f1,
                                n_resamples=n_resamples,
                                seed=derive_seed(seed, "ci/macro_f1"),
                                name="macro_f1"))
    return cis


def _load_scorer(path):
    """A checkpoint's model, refused unless it scores the beat classes."""
    model = load_checkpoint(path)
    n_classes = model.descriptor.n_classes
    if n_classes != len(CLASS_NAMES):
        raise ShapeError(f"checkpoint {path} scores {n_classes} classes, not "
                         f"the {len(CLASS_NAMES)} beat classes")
    return model


def _saliency_for(model, X, y_pred, count):
    count = min(count, len(X))
    return {str(i): grad_cam(model, X[i], int(y_pred[i]))
            for i in range(count)}


# flags that name a config key, by that key; given, they override it
_CONFIG_FLAGS = ("records_dir", "lead", "seed", "beats_csv")


def _resolve_config(args):
    """The PipelineConfig a command runs on: --config, or the defaults
    without it, as an empty file gives, with every flag that names a
    config key and was given put in that key, so it enters the hash."""
    config = PipelineConfig() if args.config is None else \
        load_config(args.config)
    overrides = {key: getattr(args, key) for key in _CONFIG_FLAGS
                 if getattr(args, key, None) is not None}
    return dataclasses.replace(config, **overrides)


def _ingest(config, out):
    """Segment and split the config's records into beat file out;
    (dataset, out)."""
    dataset = load_records_dir(config.records_dir, lead=config.lead,
                               beat_len=config.beat_len)
    stratified_split(dataset, config.train_fraction,
                     derive_seed(config.seed, "ingest"))
    return dataset, write_beats_csv(out, dataset)


def cmd_ingest(args, command):
    config = _resolve_config(args)
    if config.records_dir is None:
        raise ConfigError("ingest needs records: pass --records-dir or set "
                          "records_dir in the config")
    with _stage(command, config,
                _sibling(args.out, ".manifest.json")) as manifest:
        _, out = _ingest(config, args.out)
        manifest.add_files([out])


def _augment(config, dataset, out):
    """Top up deficient train classes with beats from one adversarial
    pair per class, trained and sampled in one job on seeds derived from
    the master seed, with the config's gan settings.  Writes out and the
    class counts before and after beside it; returns (balanced, written
    paths).
    """
    length = dataset.X.shape[1]
    # checked before the GANs train, which can take hours
    if length < MIN_INPUT_LEN:
        raise ConfigError(f"beats are {length} samples long; the models "
                          f"need >= {MIN_INPUT_LEN}")
    deficits = balance_deficits(dataset, config.gan)
    seed = derive_seed(config.seed, "augment")

    def synthetic_beats(label):
        stage = f"augment/{CLASS_NAMES[label]}"
        real = dataset.X[(dataset.split == "train") & (dataset.y == label)]
        generator, discriminator, _ = gan_train(real, label, config.gan,
                                                derive_seed(seed, stage))
        return synthesize(generator, discriminator, deficits[label],
                          config.gan.tau,
                          derive_seed(seed, f"{stage}/synthesize"))

    synthetic = dict(zip(deficits, _map_jobs(synthetic_beats, deficits)))
    balanced = _normalized_sources(
        balance_dataset(dataset, synthetic, config.gan))
    out = write_beats_csv(out, balanced)
    summary_path = write_json(_sibling(out, ".summary.json"),
                              balance_summary(dataset, balanced))
    return balanced, [out, summary_path]


def cmd_augment(args, command):
    config = _resolve_config(args)
    with _stage(command, config,
                _sibling(args.out, ".manifest.json")) as manifest:
        _, written = _augment(config, read_beats_csv(args.in_path), args.out)
        manifest.add_files(written)


def _train_one_arch(config, dataset, command, X_test, arch):
    """Train arch and write its stage; returns (summary, logits) where
    logits score X_test or, when X_test is None, the val split."""
    stage = Path(config.out_dir) / "train" / arch
    with _stage(command, config, stage / "run.manifest.json") as manifest:
        model = build(ModelDescriptor(arch, input_len=dataset.X.shape[1]),
                      derive_seed(config.seed, f"train/{arch}"))
        model, history, val_logits = train(
            model, dataset, config.train_configs[arch],
            derive_seed(config.seed, f"train/{arch}/shuffle"))

        checkpoint_path = stage / "model.ckpt"
        save_checkpoint(checkpoint_path, model)
        history_path = history.to_csv(stage / "history.csv")

        y_val = dataset.y[dataset.split == "val"]
        bundle = evaluate_predictions(y_val, val_logits.argmax(axis=1))
        summary = {"arch": arch,
                   "checkpoint": str(checkpoint_path),
                   "val_macro_f1": bundle.macro_f1,
                   "val_accuracy": bundle.accuracy,
                   "best_epoch": history.best_epoch,
                   "epochs_run": len(history)}
        summary_path = write_json(stage / "summary.json", summary)
        manifest.add_files([checkpoint_path, history_path, summary_path])
    if X_test is None:
        return summary, val_logits
    return summary, model.logits_array(X_test)


def cmd_train(args, command):
    config = _resolve_config(args)
    if config.beats_csv is None:
        raise ConfigError("train needs beat data: pass --beats or set "
                          "beats_csv in the config")
    dataset = read_beats_csv(config.beats_csv)
    archs = ARCHITECTURES if args.arch == "all" else [args.arch]
    _map_jobs(functools.partial(_train_one_arch, config, dataset, command,
                                None), archs)


def _report_run(out_dir, manifest, y, logits, seed, stage, model=None,
                X=None, n_resamples=DEFAULT_RESAMPLES, gradcam_count=0,
                ensemble=None):
    """Report on logits in out_dir; the CIs draw from seed's stage path."""
    with tk.no_grad():
        probabilities = tk.softmax(tk.Tensor(logits)).data
    y_pred = predict_classes(logits)
    bundle = evaluate_predictions(y, y_pred, probabilities)
    cis = _confidence_intervals(y, y_pred, derive_seed(seed, stage),
                                n_resamples)
    saliency = None
    if gradcam_count and model is not None:
        saliency = _saliency_for(model, X, y_pred, gradcam_count)
    written = render_report(out_dir, metrics=bundle, cis=cis,
                            saliency=saliency, ensemble=ensemble)
    manifest.add_files(written)
    return written


def _check_resamples(args):
    # checked before the stage loads and scores anything
    if args.resamples < MIN_RESAMPLES:
        raise ConfigError(f"--resamples must be >= {MIN_RESAMPLES}, got "
                          f"{args.resamples}")


def cmd_evaluate(args, command):
    _check_resamples(args)
    if args.gradcam < 0:
        raise ConfigError(f"--gradcam must be >= 0, got {args.gradcam}")
    config = _resolve_config(args)
    out = Path(args.out)
    with _stage(command, config, out / "run.manifest.json") as manifest:
        model = _load_scorer(args.checkpoint)
        X, y = _select_rows(read_beats_csv(args.test), args.split)
        _report_run(out, manifest, model=model, X=X, y=y,
                    logits=model.logits_array(X), seed=config.seed,
                    stage=f"evaluate/{model.descriptor.arch}",
                    n_resamples=args.resamples, gradcam_count=args.gradcam)


def _ensemble_run(entries, logits_by_model, y, strategy, out, report_dir,
                  manifest, seed, n_resamples=DEFAULT_RESAMPLES):
    """Dump each member's logits to out, fuse them with strategy and
    report the fused scores in report_dir."""
    for entry in entries:
        manifest.add_files([write_logits_csv(
            out / f"logits_{entry.id}.csv",
            logits_by_model[entry.id])])
    spec = build_strategy([e.id for e in entries],
                          [e.val_macro_f1 for e in entries], strategy)
    fused = fuse(spec, logits_by_model)
    _report_run(report_dir, manifest, y=y, logits=fused, seed=seed,
                stage="ensemble", n_resamples=n_resamples, ensemble=spec)


def cmd_ensemble(args, command):
    _check_resamples(args)
    config = _resolve_config(args)
    out = Path(args.out)
    with _stage(command, config, out / "run.manifest.json") as manifest:
        entries = load_manifest(args.manifest)
        X, y = _select_rows(read_beats_csv(args.test), "test")
        logits_by_model = {}
        for entry in entries:
            # a relative checkpoint path is read from the manifest's
            # directory, never the working directory
            model = _load_scorer(os.path.normpath(
                Path(args.manifest).parent / entry.checkpoint))
            logits_by_model[entry.id] = model.logits_array(X)
        _ensemble_run(entries, logits_by_model, y, config.strategy, out, out,
                      manifest, config.seed, args.resamples)


def cmd_reproduce(args, command):
    config = _resolve_config(args)
    out = Path(config.out_dir)
    # every stage hashes the whole config; the outer stage spans the run
    # and lists no files, each inner one lists what it wrote
    stage = functools.partial(_stage, command, config)
    with stage(out / "reproduce.manifest.json"):
        # stage 1: beats from raw records, or a pre-segmented file
        if config.records_dir is not None:
            with stage(out / "ingest" / "beats.manifest.json") as manifest:
                dataset, beats_path = _ingest(config,
                                              out / "ingest" / "beats.csv")
                manifest.add_files([beats_path])
        elif config.beats_csv is not None:
            dataset = read_beats_csv(config.beats_csv)
        else:
            raise ConfigError("reproduce needs records_dir or beats_csv "
                              "in the config")
        # stage 4's held-out beats: a test file, read before the GAN stage
        # so a bad one fails early, else the val split the trainings score
        X_test = y = None
        if config.test_csv is not None:
            X_test, y = _select_rows(read_beats_csv(config.test_csv), "test")

        # stage 2: class balance via per-class adversarial synthesis
        with stage(out / "augment" / "beats_aug.manifest.json") as manifest:
            balanced, written = _augment(config, dataset,
                                         out / "augment" / "beats_aug.csv")
            manifest.add_files(written)
        del dataset  # the training stages read balanced only

        # stage 3: all four architectures, each on its own seed
        summaries, logits = zip(*_map_jobs(
            functools.partial(_train_one_arch, config, balanced, command,
                              X_test), ARCHITECTURES))
        logits_by_model = dict(zip(ARCHITECTURES, logits))
        if y is None:
            y = balanced.y[balanced.split == "val"]

        # stage 4: fuse the logits the training jobs returned
        ensemble_dir = out / "ensemble"
        entries = [ManifestEntry(id=s["arch"],
                                 checkpoint=os.path.relpath(s["checkpoint"],
                                                            ensemble_dir),
                                 val_macro_f1=s["val_macro_f1"])
                   for s in summaries]
        with stage(ensemble_dir / "run.manifest.json") as manifest:
            models_path = write_manifest(ensemble_dir / "models.json",
                                         entries)
            manifest.add_files([models_path])
            _ensemble_run(entries, logits_by_model, y, config.strategy,
                          ensemble_dir, ensemble_dir / "report", manifest,
                          config.seed)

        # stage 5: per-model reports on the same split from the same logits
        for entry in entries:
            report_dir = out / "evaluate" / entry.id
            with stage(report_dir / "run.manifest.json") as manifest:
                _report_run(report_dir, manifest, y=y,
                            logits=logits_by_model[entry.id],
                            seed=config.seed, stage=f"evaluate/{entry.id}")


def _add_config_flags(p):
    p.add_argument("--config", help="pipeline config; the defaults without "
                                    "it, as an empty file gives")
    p.add_argument("--seed", type=int,
                   help="master seed; overrides seed from the config")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ecgkit",
        description="Heartbeat classification pipeline: ingest, augment, "
                    "train, ensemble, evaluate.")
    parser.add_argument("--version", action="version",
                        version=f"ecgkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="segment WFDB records into a beat CSV")
    _add_config_flags(p)
    p.add_argument("--records-dir",
                   help="overrides records_dir from the config")
    p.add_argument("--lead", help="overrides lead from the config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("augment",
                       help="balance minority classes with synthetic beats")
    _add_config_flags(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("train", help="train one architecture, or all four")
    p.add_argument("--arch", required=True, choices=ARCHITECTURES + ("all",))
    p.add_argument("--config", required=True)
    p.add_argument("--beats", dest="beats_csv",
                   help="beat CSV; overrides beats_csv from the config")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a beat file")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--gradcam", type=int, default=0,
                   help="also explain the first N rows")
    p.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("ensemble", help="fuse models from a manifest")
    _add_config_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    p.set_defaults(handler=cmd_ensemble)

    p = sub.add_parser("reproduce",
                       help="run the whole pipeline from one config")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_reproduce)
    return parser


def run(argv):
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args.handler(args, "ecgkit " + " ".join(argv))
    except ConfigError as exc:
        print(f"ecgkit: config error: {exc}", file=sys.stderr)
        return 3
    except (EcgkitError, OSError) as exc:
        print(f"ecgkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
