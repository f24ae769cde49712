"""ecgkit benchmark: three closed-loop, single-caller workloads.

    python3 bench/run.py --workload {reproduce,train,records} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. Each workload builds its inputs from the seed, then repeats one
round (a fixed unit of work, described in ``WORKLOADS``) until ``--seconds``
have passed, always finishing at least one round. Every round's outputs are
checked. With ``--trace 0`` the last output line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same rounds run once untraced
and once more with every public ecgkit function wrapped in a span, and the
JSON carries the per-layer metrics. Work files go to ``.bench_run/`` in the
checkout and are removed at exit; the result record and the span arrays of
a traced run stay in ``.bench_run/results/``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# one BLAS thread unless the caller says otherwise; must precede numpy,
# which layers imports
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import layers  # noqa: E402
from layers import ARCHS  # noqa: E402

SETUP_REPEATS = 5

# reproduce: two records of 380 beats give each minority class 38 beats, of
# which 33 land in train: enough for one GAN batch of 32 per epoch
REPRODUCE_RECORDS, REPRODUCE_BEATS = 2, 380
REPRODUCE_GAN_EPOCHS = 3
REPRODUCE_BALANCE_RATIO = 0.1
# after three GAN steps the discriminator scores every candidate near 0.5,
# so the shipped tau of 0.5 would reject them all
REPRODUCE_TAU = 0.25

# train: steps per architecture per round at the TABLE1 batch size, and the
# block of beats scored by logits_array (one of its 256-row batches)
TRAIN_STEPS = 1
TAIL_SAMPLES = 11            # a tail percentile needs 10 samples beyond it
TRAIN_MATRIX_BEATS = 1024
INFER_BEATS = 256

# records: eight records of 750 beats; evaluate scores the val split
RECORDS_COUNT, RECORDS_BEATS = 8, 750
GRADCAM_BEATS = 4
RESAMPLES = 1000


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _median(values):
    return float(statistics.median(values))


class Check:
    """Output checks of one run; any failure makes the run incorrect."""

    def __init__(self):
        self.errors = []
        self.first_hashes = None

    def require(self, ok, message):
        if not ok:
            self.errors.append(message)

    def same_hashes(self, hashes, what):
        if self.first_hashes is None:
            self.first_hashes = dict(hashes)
            return
        for key, digest in hashes.items():
            self.require(self.first_hashes.get(key) == digest,
                         f"{what}: {key} differs from the first round")


def _cli(ecg, check, argv):
    """One CLI call; an exception the CLI let through counts as exit 1."""
    try:
        code = ecg.cli.run(argv)
    except Exception:  # the bench must report the failure, not die of it
        check.require(False, f"ecgkit {argv[0]} raised:\n"
                      + traceback.format_exc())
        return 1
    check.require(code == 0, f"ecgkit {argv[0]} exited {code}")
    return code


def _accuracy_ok(metrics_path):
    accuracy = json.loads(Path(metrics_path).read_text()).get("accuracy")
    return isinstance(accuracy, float) and 0.0 <= accuracy <= 1.0


# -- workloads ---------------------------------------------------------------

class Reproduce:
    """One ``ecgkit reproduce`` per round on a small record set."""

    min_traced_rounds = 1

    def __init__(self, ecg, seed):
        self.ecg, self.seed = ecg, seed

    def setup(self, work):
        import synth
        records = work / "records"
        synth.make_records(records, self.seed, REPRODUCE_RECORDS,
                           REPRODUCE_BEATS)
        config = {"records_dir": str(records), "out_dir": str(work / "out"),
                  "seed": self.seed,
                  "gan": {"epochs": REPRODUCE_GAN_EPOCHS,
                          "balance_ratio": REPRODUCE_BALANCE_RATIO,
                          "tau": REPRODUCE_TAU}}
        for arch in ARCHS:
            config[arch] = {"epochs": 1}
        self.config = work / "reproduce.json"
        self.config.write_text(json.dumps(config, indent=2))
        self.out = work / "out"

    def round(self, check, tracer=None):
        t0 = time.perf_counter()
        ok = _cli(self.ecg, check, ["reproduce", "--config",
                                    str(self.config)]) == 0
        seconds = time.perf_counter() - t0
        hashes = {}
        if ok:
            listed = []
            for manifest in sorted(self.out.rglob("*.manifest.json")):
                listed += self.ecg.config.RunManifest.load(manifest).files
            missing = [p for p in listed if not Path(p).is_file()]
            check.require(not missing, f"manifest lists missing {missing[:3]}")
            check.require(_accuracy_ok(self.out / "ensemble" / "report"
                                       / "metrics.json"),
                          "ensemble accuracy outside [0, 1]")
            tracked = [self.out / "ingest" / "beats.csv"]
            tracked += sorted(self.out.glob("train/*/model.ckpt"))
            tracked += sorted(self.out.rglob("metrics.json"))
            hashes = {str(p.relative_to(self.out)): _sha256(p)
                      for p in tracked}
            check.same_hashes(hashes, "reproduce rerun")
        return ({"round_s": seconds, "reproduce_s": seconds}, 1, int(not ok),
                hashes)


class Train:
    """Training steps and inference for all four architectures, in memory."""

    # enough steps per architecture for a tail percentile
    min_traced_rounds = -(-TAIL_SAMPLES // TRAIN_STEPS)

    def __init__(self, ecg, seed):
        self.ecg, self.seed = ecg, seed

    def setup(self, work):
        import numpy as np
        import synth
        ecg = self.ecg
        X, y = synth.beat_matrix(self.seed, TRAIN_MATRIX_BEATS)
        rng = np.random.default_rng(self.seed)
        self.models, self.initial, self.batches = {}, {}, {}
        for arch in ARCHS:
            model = ecg.models.build(
                ecg.models.ModelDescriptor(arch=arch, input_len=X.shape[1]),
                seed=ecg.config.derive_seed(self.seed, f"train/{arch}"))
            self.models[arch] = model
            self.initial[arch] = {k: v.copy() for k, v in
                                  model.state_arrays().items()}
            size = ecg.training.TABLE1[arch]["batch_size"]
            order = rng.permutation(len(X))
            self.batches[arch] = [
                (X[rows].reshape(size, 1, -1), y[rows]) for rows in
                (order[i * size:(i + 1) * size] for i in range(TRAIN_STEPS))]
        self.block = X[-INFER_BEATS:]

    def _step(self, model, optimizer, xb, yb, rng):
        ecg = self.ecg
        logits = model.forward(ecg.tensor.Tensor(xb), training=True, rng=rng)
        probs = ecg.tensor.softmax(logits, axis=-1)
        loss = ecg.training.focal_loss(probs, yb)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    def round(self, check, tracer=None):
        import numpy as np
        ecg = self.ecg
        metrics, hashes, attempted, failed = {"round_s": 0.0}, {}, 0, 0
        for arch in ARCHS:
            model = self.models[arch]
            # every round restarts from the same weights, so its logits
            # must repeat bit for bit
            model.load_state_arrays(self.initial[arch])
            optimizer = ecg.training.AdamW(
                model.parameters(), lr=ecg.training.TABLE1[arch]["lr"])
            rng = np.random.default_rng(self.seed)
            step = self._step if tracer is None else \
                tracer.wrap(f"bench.train_step.{arch}", self._step)
            trained, seconds = 0, 0.0
            for xb, yb in self.batches[arch]:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    loss = step(model, optimizer, xb, yb, rng)
                except Exception:  # counted and reported, not fatal
                    failed += 1
                    check.require(False, f"{arch} step raised:\n"
                                  + traceback.format_exc())
                    continue
                seconds += time.perf_counter() - t0
                trained += len(yb)
                check.require(np.isfinite(loss), f"{arch} loss {loss}")
            infer = model.logits_array if tracer is None else \
                tracer.wrap(f"bench.infer.{arch}", model.logits_array)
            attempted += 1
            t0 = time.perf_counter()
            logits = infer(self.block)
            infer_seconds = time.perf_counter() - t0
            check.require(np.isfinite(logits).all(), f"{arch} logits")
            hashes[arch] = hashlib.sha256(logits.tobytes()).hexdigest()
            metrics["round_s"] += seconds + infer_seconds
            metrics[f"train_beats_per_s.{arch}"] = \
                trained / seconds if trained else 0.0
            metrics[f"infer_beats_per_s.{arch}"] = len(logits) / infer_seconds
        check.same_hashes(hashes, "logits")
        return metrics, attempted, failed, hashes


class Records:
    """``ecgkit ingest`` on a larger record set, then ``ecgkit evaluate``
    of a resnet1d checkpoint on the val split of the file it wrote."""

    min_traced_rounds = 1

    def __init__(self, ecg, seed):
        self.ecg, self.seed = ecg, seed

    def setup(self, work):
        import synth
        ecg = self.ecg
        self.records = work / "records"
        self.expected_rows = len(synth.make_records(
            self.records, self.seed, RECORDS_COUNT, RECORDS_BEATS))
        model = ecg.models.build(
            ecg.models.ModelDescriptor(arch="resnet1d"), seed=self.seed)
        self.checkpoint = ecg.checkpoint.save_checkpoint(
            work / "resnet1d.ckpt", model)
        self.beats = work / "ingest" / "beats.csv"
        self.report = work / "evaluate"

    def round(self, check, tracer=None):
        t0 = time.perf_counter()
        ingest = _cli(self.ecg, check, [
            "ingest", "--records-dir", str(self.records), "--lead", "MLII",
            "--out", str(self.beats), "--seed", str(self.seed)])
        t1 = time.perf_counter()
        evaluate = _cli(self.ecg, check, [
            "evaluate", "--checkpoint", str(self.checkpoint),
            "--test", str(self.beats), "--split", "val",
            "--gradcam", str(GRADCAM_BEATS), "--resamples", str(RESAMPLES),
            "--out", str(self.report)])
        t2 = time.perf_counter()
        hashes = {}
        if ingest == 0:
            with open(self.beats) as handle:
                rows = sum(1 for _ in handle) - 1
            check.require(rows == self.expected_rows,
                          f"beat file has {rows} rows, records hold "
                          f"{self.expected_rows} full-window beats")
            hashes["beats.csv"] = _sha256(self.beats)
        if evaluate == 0:
            metrics = self.report / "metrics.json"
            check.require(_accuracy_ok(metrics), "accuracy outside [0, 1]")
            hashes["metrics.json"] = _sha256(metrics)
        check.same_hashes(hashes, "ingest/evaluate rerun")
        failed = int(ingest != 0) + int(evaluate != 0)
        return ({"round_s": t2 - t0, "ingest_s": t1 - t0,
                 "evaluate_s": t2 - t1}, 2, failed, hashes)


WORKLOADS = {"reproduce": Reproduce, "train": Train, "records": Records}


# -- running -----------------------------------------------------------------

def _run_rounds(workload, check, seconds=None, rounds=None, tracer=None):
    """Closed loop: rounds until `seconds` pass, or exactly `rounds`.
    Returns the rounds and the median of each per-round metric."""
    per_round, attempted, failed = [], 0, 0
    started = time.perf_counter()
    while True:
        metrics, tried, lost, hashes = workload.round(check, tracer)
        per_round.append({"metrics": metrics, "hashes": hashes})
        if len(per_round) == 1:
            # later rounds repeat the same work; the peak they add is heap
            # fragmentation, and their number depends on the clock
            first_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += tried
        failed += lost
        if rounds is not None:
            if len(per_round) >= rounds:
                break
        elif time.perf_counter() - started >= seconds:
            break
    medians = {key: _median([r["metrics"][key] for r in per_round])
               for key in per_round[0]["metrics"]}
    return {"per_round": per_round, "medians": medians,
            "attempted": attempted, "failed": failed,
            "peak_rss_mb": first_rss / 1024}


def stamp(ecg, seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "ecgkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": source.hexdigest(),
            "ecgkit": ecg.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)),
            "ecgkit_threads": os.environ.get("ECGKIT_THREADS", "unset"),
            "machine": platform.machine(),
            "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecgkit" / "__init__.py").is_file():
        _fail(f"no ecgkit sources under {SRC}; run from a source checkout")
    if args.trace and os.environ.get("ECGKIT_THREADS", "1") != "1":
        _fail("the traced run keeps one span stack; unset ECGKIT_THREADS")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                declared["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    # the bench calls through module attributes, so traced wrappers are
    # the ones called
    for module in ("checkpoint", "cli", "config", "models", "tensor",
                   "training"):
        importlib.import_module(f"ecgkit.{module}")
    ecg = sys.modules["ecgkit"]

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload](ecg, args.seed)
        setup_times = []
        for i in range(SETUP_REPEATS):
            work = run_dir / f"setup{i}"
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(work)
            setup_times.append(time.perf_counter() - t0)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(work)

        check = Check()
        untraced = _run_rounds(workload, check, seconds=args.seconds)
        medians = untraced["medians"]
        end_to_end = {"setup_s": (_median(setup_times), "s"),
                      "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
                      "round_s": (medians["round_s"], "s")}
        shown = dict(end_to_end)
        attempted, failed = untraced["attempted"], untraced["failed"]
        record = {"workload": args.workload, "stamp": stamp(ecg, args.seed),
                  "setup_seconds": setup_times, "untraced": untraced}
        if args.trace:
            traced = layers.traced_pass(
                workload, check, max(len(untraced["per_round"]),
                                     workload.min_traced_rounds), _run_rounds,
                WORK / "results" / f"spans_{args.workload}_s{args.seed}.npz")
            shown = layers.per_layer(traced, medians)
            attempted += traced["attempted"]
            failed += traced["failed"]
            record["traced"] = {key: traced[key] for key in
                                ("per_round", "medians", "counters")}

        reported = {k: u for k, (_, u) in shown.items()}
        check.require(reported == declared, "metrics differ from "
                      "BENCHMARK.json: " + ", ".join(
                          f"{name} [{unit}]" for name, unit in sorted(
                              set(reported.items())
                              ^ set(declared.items()))))
        for name, (value, unit) in end_to_end.items():
            print(f"{name} {value:.6g} {unit}")
        for name, value in medians.items():
            if name != "round_s":
                print(f"{name} {value:.6g} {layers.E2E[name]}")
        if args.trace:
            for name, (value, unit) in shown.items():
                print(f"{name} {value:.6g} {unit}")
        for key, digest in sorted(untraced["per_round"][0]["hashes"].items()):
            print(f"sha256 {key} {digest}")
        for error in check.errors:
            print(f"CHECK FAILED: {error}")
        print("stamp " + json.dumps(record["stamp"], sort_keys=True))

        record.update(metrics=shown, errors=check.errors)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
         ).write_text(json.dumps(record, indent=1))
        correct = not check.errors and failed == 0
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in shown.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
