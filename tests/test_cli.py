"""The command-line surface: files, determinism, exit codes."""

import concurrent.futures
import csv
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovorder import MarkovModel, cli, random_model, sample_paths
from markovorder.diagnostics import mc as mc_mod
from markovorder.model import lift_kernel, write_model_file
from markovorder.rng import PHI64, derive_seed

TWO_STATE = MarkovModel([[0.7, 0.3], [0.2, 0.8]])
MASK = 0xFFFFFFFFFFFFFFFF


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_config(
    tmp_path, out_name="out", extra="", model=TWO_STATE, n_grid="256 1024", reps=3,
    spec="loglog C=5",
):
    write_model_file(model, tmp_path / "chain.model")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[model]\n"
        "file = chain.model\n"
        "[experiment]\n"
        f"n_grid = {n_grid}\n"
        f"replications = {reps}\n"
        "seed = 4242\n"
        f"out = {tmp_path / out_name}\n"
        "[penalty]\n"
        f"spec = {spec}\n"
        "specs = loglog C=5, bic\n"
        "[cutoff]\n"
        "spec = sublog\n" + extra
    )
    return cfg


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


class TestSimulate:
    def test_writes_paths_and_manifest(self, tmp_path):
        cfg = make_config(tmp_path, reps=2, n_grid="64 100")
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replications"] == 2 and manifest["n"] == 100
        first = (out / manifest["paths"][0]["file"]).read_text()
        symbols = first.splitlines()[-1].split(":")[1].split()
        assert len(symbols) == 100

    def test_manifest_seeds_follow_documented_derivation(self, tmp_path):
        cfg = make_config(tmp_path, reps=4, n_grid="64")
        cli.main(["simulate", "--config", str(cfg)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())

        def scramble_reference(i):
            z = ((i + 1) * PHI64) & MASK
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
            return (z ^ (z >> 31)) & MASK

        for entry in manifest["paths"]:
            assert entry["seed"] == 4242 ^ scramble_reference(entry["replication"])

    def test_path_files_match_library_sampler(self, tmp_path):
        cfg = make_config(tmp_path, reps=2, n_grid="80")
        cli.main(["simulate", "--config", str(cfg)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for entry in manifest["paths"]:
            text = (tmp_path / "out" / entry["file"]).read_text()
            stored = np.array(text.splitlines()[-1].split(":")[1].split(), dtype=int)
            direct = sample_paths(TWO_STATE, 80, entry["seed"])[0]
            assert np.array_equal(stored, direct)

    def test_batches_leave_files_unchanged(self, tmp_path, monkeypatch):
        # batches of 3 paths over 7 replications (the last batch holds one)
        # against one path per batch
        cfg = make_config(tmp_path, reps=7, n_grid="64 100")
        trees = {}
        for paths in (3, 1):
            monkeypatch.setattr(cli, "SIMULATE_BATCH_BYTES", paths * 8 * 100)
            out = tmp_path / f"batch{paths}"
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            trees[paths] = tree_bytes(out)
        assert trees[3] == trees[1]
        assert len(trees[3]) == 8
        for i in range(7):
            seed = derive_seed(4242, i)
            assert np.array_equal(
                cli._read_path_file(tmp_path / "batch3" / cli._path_filename(i), 2, seed, 100),
                sample_paths(TWO_STATE, 100, seed)[0],
            )


    @pytest.mark.parametrize("stage", ["encode", "rename"])
    def test_interrupted_run_leaves_no_manifest_or_partial_file(
        self, tmp_path, monkeypatch, stage
    ):
        # a manifest from an earlier run, then a run whose third path file fails
        # before its temp file is written (encode) or after (rename)
        cfg = make_config(tmp_path, reps=4, n_grid="64")
        assert cli.main(["simulate", "--config", str(cfg), "--seed", "1"]) == 0
        calls = []
        target, name = (cli, "_encode_symbols") if stage == "encode" else (os, "replace")
        real = getattr(target, name)

        def flaky(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(target, name, flaky)
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        monkeypatch.undo()
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == [cli._path_filename(i) for i in range(4)]
        for i in range(2):  # the two files written before the failure are whole
            seed = derive_seed(4242, i)
            assert np.array_equal(
                cli._read_path_file(out / cli._path_filename(i), 2, seed, 64),
                sample_paths(TWO_STATE, 64, seed)[0],
            )


class TestModelFile:
    @pytest.mark.parametrize(
        "text, named",
        [
            (
                "initial: 0.5 0.5\nalphabet_size: 2\norder: 1\nkernel:\n0.5 0.5\n0.5 0.5\n",
                "model file initial: must follow alphabet_size and order",
            ),
            ("alphabet_size: 2\norder: -1\nkernel:\n0.5 0.5\n", "model file order"),
            ("alphabet_size: 2\norder: 99\nkernel:\n0.5 0.5\n", "model file order"),
            ("alphabet_size: 2\norder: 1\nkernel:\nnan nan\n0.5 0.5\n", "kernel entries"),
            (
                "alphabet_size: 2\norder: 2\nkernel:\n" + "0.25 0.25 0.25 0.25\n" * 4,
                "kernel row 0 has 4 entries, not 2",
            ),
        ],
        ids=["initial-first", "negative-order", "order-past-int64", "nan-kernel", "row-width"],
    )
    def test_bad_model_file_named(self, tmp_path, capsys, text, named):
        cfg = make_config(tmp_path, n_grid="64")
        (tmp_path / "chain.model").write_text(text)
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


class TestPathFileCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(2, 40),
        n=st.integers(0, 2000),
        symbol_seed=st.integers(0, 2**32),
    )
    @example(m=1000, n=2000, symbol_seed=0)  # three-digit symbols
    def test_round_trip_matches_joined_text(self, tmp_path_factory, m, n, symbol_seed):
        symbols = np.random.default_rng(symbol_seed).integers(0, m, n)
        path = tmp_path_factory.mktemp("codec") / "path.txt"
        cli._write_path_file(path, symbols, m, 99)
        expected = (
            f"alphabet_size: {m}\nn: {n}\nseed: 99\n"
            "symbols: " + " ".join(str(int(s)) for s in symbols) + "\n"
        )
        assert path.read_bytes() == expected.encode()
        assert np.array_equal(cli._read_path_file(path, m, 99, n), symbols)

    @pytest.mark.parametrize("m", [11, 101, 1001])
    @pytest.mark.parametrize("text", [b"0", b"7 10", b"3 5 10", b"10 3 5"])
    def test_short_symbols_at_line_start(self, m, text):
        # the higher digits of the first symbols would lie before the line
        assert cli._decode_symbols("p", text, m).tolist() == [int(t) for t in text.split()]

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda h, s: (h, s.replace(b" ", b"  ", 1)), "repeated space"),
            (lambda h, s: (h, s.replace(b" ", b"\t", 1)), "b'\\t'"),
            (lambda h, s: (h, b"0x" + s[2:]), "b'x'"),
            (lambda h, s: (h, b"2" + s[1:]), "'2', not one of 0..1"),
            (lambda h, s: (h.replace(b"n: 128", b"n: 127"), s), "n is '127'"),
        ],
        ids=["double-space", "tab", "letter", "symbol-equal-to-m", "n-mismatch"],
    )
    def test_malformed_file_rejected(self, tmp_path, capsys, corrupt, named):
        cfg = make_config(tmp_path, n_grid="128", reps=2)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "path_00001.txt"
        head, symbols = path.read_bytes().split(b"symbols: ")
        head, symbols = corrupt(head, symbols)
        path.write_bytes(head + b"symbols: " + symbols)
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "path_00001.txt" in err and named in err and "Traceback" not in err


class TestEstimate:
    def test_constant_path_model_chooses_zero(self, tmp_path):
        model = MarkovModel([[1.0, 0.0], [1.0, 0.0]], initial=[1.0, 0.0])
        cfg = make_config(tmp_path, model=model, n_grid="64 256", reps=2)
        assert cli.main(["estimate", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "out" / "estimates.csv")
        assert rows[0] == list(cli.ESTIMATE_HEADER)
        assert all(row[4] == "0" for row in rows[1:])

    def test_uses_simulated_paths_when_present(self, tmp_path):
        cfg = make_config(tmp_path, n_grid="128 512", reps=2)
        cli.main(["simulate", "--config", str(cfg)])
        cli.main(["estimate", "--config", str(cfg)])
        inline_dir = tmp_path / "fresh"
        cli.main(["estimate", "--config", str(cfg), "--out", str(inline_dir)])
        a = read_csv(tmp_path / "out" / "estimates.csv")
        b = read_csv(inline_dir / "estimates.csv")
        assert a == b  # stored paths reproduce the inline sampling exactly

    @pytest.mark.parametrize(
        "rerun_config, rerun_flags, field",
        [
            ({}, ["--seed", "999"], "master_seed"),
            ({"reps": 4}, [], "replications"),
            ({"model": MarkovModel([[0.6, 0.4], [0.2, 0.8]])}, [], "model_label"),
        ],
    )
    def test_manifest_from_another_run_rejected(
        self, tmp_path, capsys, rerun_config, rerun_flags, field
    ):
        cfg = make_config(tmp_path, n_grid="128", reps=3)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        make_config(tmp_path, n_grid="128", **{"reps": 3, **rerun_config})
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(cfg)] + rerun_flags) == 1
        err = capsys.readouterr().err
        assert field in err and "manifest.json" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    @pytest.mark.parametrize("key", ["replication", "seed", "file"])
    def test_manifest_entry_missing_key_rejected(self, tmp_path, capsys, key):
        cfg = make_config(tmp_path, n_grid="128", reps=2)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        manifest_file = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        del manifest["paths"][1][key]
        manifest_file.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"the {key} field is missing" in err and "manifest.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda m: m.update(paths=5), "manifest.json: paths is 5, not a list"),
            (lambda m: m["paths"][0].update(file=3), "manifest.json paths[0]: file is 3, not a str"),
            (lambda m: m["paths"][1].update(replication=[1]), "paths[1]: replication is [1]"),
            (lambda m: m["paths"][1].update(seed=1.5), "paths[1]: seed is 1.5"),
            (lambda m: m.update(paths=[]), "paths holds 0 entries"),
            (lambda m: m.update(paths=m["paths"][:1]), "paths holds 1 entries"),
            *(
                (lambda m, f=f: m["paths"][1].update(file=f), f"manifest.json paths[1]: file is {f!r}")
                for f in ("/etc/hostname", "../x.txt", "sub/x.txt", "")
            ),
        ],
        ids=["paths-int", "file-int", "replication-list", "seed-float", "no-paths", "short-paths",
             "file-absolute", "file-parent", "file-subdir", "file-empty"],
    )
    def test_manifest_field_of_wrong_type_rejected(self, tmp_path, capsys, mutate, named):
        cfg = make_config(tmp_path, n_grid="128", reps=2)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        manifest_file = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        mutate(manifest)
        manifest_file.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("symbols:", "tokens:", "symbols"),
            ("alphabet_size: 2", "alphabet_size: 3", "alphabet_size"),
        ],
    )
    def test_path_file_from_another_run_rejected(self, tmp_path, capsys, old, new, field):
        cfg = make_config(tmp_path, n_grid="128", reps=2)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "path_00001.txt"
        path.write_text(path.read_text().replace(old, new))
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert field in err and "path_00001.txt" in err and "Traceback" not in err

    def test_jobs_flag_keeps_output_identical(self, tmp_path):
        cfg = make_config(tmp_path, n_grid="128 512", reps=4)
        cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--jobs", "2"])
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    @pytest.mark.parametrize("jobs, workers", [(64, [3]), (2, [2]), (1, []), (0, None), (-3, None)])
    def test_jobs_bound_the_pool(self, tmp_path, monkeypatch, capsys, jobs, workers):
        # a stand-in executor records its size and runs the tasks here, so
        # no worker process is ever started
        started = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        cfg = make_config(tmp_path, n_grid="128", reps=3)
        code = cli.main(["estimate", "--config", str(cfg), "--jobs", str(jobs)])
        err = capsys.readouterr().err
        if workers is None:
            assert code == 1 and "--jobs" in err and "Traceback" not in err
            assert started == [] and not (tmp_path / "out").exists()
        else:
            assert code == 0 and started == workers

    def test_reproduces_library_experiment(self, tmp_path):
        from markovorder import LogLogPenalty, SubLogCutoff, consistency_experiment

        cfg = make_config(tmp_path, n_grid="256 1024", reps=5)
        cli.main(["estimate", "--config", str(cfg)])
        rows = read_csv(tmp_path / "out" / "estimates.csv")[1:]
        result = consistency_experiment(
            TWO_STATE, LogLogPenalty(5.0), SubLogCutoff(), [256, 1024], 5, seed=4242
        )
        by_key = {(row.n, row.replication): row for row in result.rows}
        assert len(rows) == len(result.rows)
        for raw in rows:
            row = by_key[(int(raw[0]), int(raw[3]))]
            assert int(raw[4]) == row.chosen_order
            assert int(raw[7]) == row.seed
            assert float(raw[6]) == pytest.approx(row.lil_stat, rel=1e-11)
        recovery = read_csv(tmp_path / "out" / "recovery.csv")[1:]
        for raw, summary in zip(recovery, result.summary):
            assert int(raw[0]) == summary.n
            assert float(raw[4]) == pytest.approx(summary.recovery)


class TestSweep:
    def test_rows_match_single_estimates(self, tmp_path):
        # the one-pass sweep, from path files with two workers, against one
        # estimate per penalty over the same path files
        cfg = make_config(tmp_path, n_grid="256 1024", reps=3)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--jobs", "2"]) == 0
        out = tmp_path / "out"
        sweep = {
            name: read_csv(out / f"sweep{name}.csv")[1:] for name in ("", "_scores", "_recovery")
        }
        for spec, label in (("loglog C=5", "loglog(C=5)"), ("bic", "bic")):
            cfg = make_config(tmp_path, n_grid="256 1024", reps=3, spec=spec)
            assert cli.main(["estimate", "--config", str(cfg)]) == 0
            est_rows = read_csv(out / "estimates.csv")[1:]
            score_rows = read_csv(out / "scores.csv")[1:]
            recovery_rows = read_csv(out / "recovery.csv")[1:]
            assert len(est_rows) == 6
            # sweep rows are penalty-first; estimates are n-first
            mine = [[r[1], r[0]] + r[2:] for r in sweep[""] if r[0] == label]
            assert mine == est_rows
            assert [r[1:] for r in sweep["_scores"] if r[0] == label] == score_rows
            mine = [[r[1], r[0]] + r[2:] for r in sweep["_recovery"] if r[0] == label]
            assert mine == recovery_rows

    def test_penalty_value_columns_ordered(self, tmp_path):
        cfg = make_config(tmp_path, n_grid="4096", reps=1)
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        rows = read_csv(tmp_path / "sw" / "sweep_scores.csv")[1:]
        by_key = {}
        for row in rows:
            by_key[(row[0].split("(")[0], int(row[3]))] = float(row[5])
        # at n = 4096, 5 log log n < 0.5 log n fails, so compare r >= 1 gaps:
        for r in (1, 2):
            assert by_key[("loglog", r)] < by_key[("bic", r)] or True
        # direct arithmetic claim on the stored values
        import math

        for r in (0, 1, 2):
            ll, bic = by_key[("loglog", r)], by_key[("bic", r)]
            expected = (5 * math.log(math.log(4096))) < (0.5 * math.log(4096))
            assert (ll < bic) == expected

    def test_needs_two_penalties(self, tmp_path):
        write_model_file(TWO_STATE, tmp_path / "chain.model")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[model]\nfile = chain.model\n"
            "[experiment]\nn_grid = 256\nseed = 1\n"
            f"out = {tmp_path / 'out'}\n"
            "[penalty]\nspec = bic\n"
        )
        assert cli.main(["sweep", "--config", str(cfg)]) == 1

    def test_sorted_deterministic_rows(self, tmp_path):
        cfg = make_config(tmp_path, n_grid="256 1024 4096", reps=2)
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        rows = read_csv(tmp_path / "sw" / "sweep.csv")[1:]
        keys = [(r[0], int(r[3]), int(r[1])) for r in rows]
        # blocks ordered by (penalty as configured, replication), n rising inside
        penalty_rank = {"loglog(C=5)": 0, "bic": 1}
        ranked = [(penalty_rank[p], rep, n) for p, rep, n in keys]
        assert ranked == sorted(ranked)


VERIFY_EXTRA = (
    "[verify]\n"
    "checks = norm-bound bernstein\n"
    "instances = 10\n"
    "bernstein_replications = 10000\n"
    "bernstein_n = 64\n"
)


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path):
        cfg = make_config(tmp_path, extra=VERIFY_EXTRA)
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert report["all_gating_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {"norm-bound", "bernstein"}
        for check in report["checks"]:
            assert set(check) == {"name", "gating", "passed", "detail"}
        assert (tmp_path / "out" / "bernstein.csv").exists()

    def test_fault_injection_fails_gating_check(self, tmp_path, monkeypatch):
        def broken_mixture(candidate, truth, r):
            # the halving is "forgotten": rows sum to 2
            from markovorder.model import lift_kernel

            table = lift_kernel(candidate.kernel, truth.m, r) + lift_kernel(
                truth.kernel, truth.m, r
            )
            return types.SimpleNamespace(order=r, m=truth.m, table=table)

        monkeypatch.setattr(mc_mod, "mixture_kernel", broken_mixture)
        cfg = make_config(
            tmp_path,
            extra="[verify]\nchecks = norm-bound\ninstances = 10\n",
        )
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        report = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert report["all_gating_passed"] is False

    def test_empty_selection_rejected(self, tmp_path):
        cfg = make_config(tmp_path, extra="[verify]\nchecks =\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 1

    def test_explicit_candidate_file(self, tmp_path):
        cand = MarkovModel([[0.5, 0.5], [0.4, 0.6]])
        write_model_file(cand, tmp_path / "cand.model")
        cfg = make_config(
            tmp_path,
            extra=(
                "[verify]\nchecks = bernstein\n"
                "bernstein_replications = 10000\nbernstein_n = 64\n"
                "candidate_file = cand.model\n"
            ),
        )
        assert cli.main(["verify", "--config", str(cfg)]) == 0

    def test_missing_candidate_file_named(self, tmp_path, capsys):
        cfg = make_config(
            tmp_path, extra="[verify]\nchecks = bernstein\ncandidate_file = ghost.model\n"
        )
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "verify.candidate_file: no such file" in err and "Traceback" not in err

    def test_bracket_on_model_declared_above_its_true_order(self, tmp_path):
        # the file declares order 2 for a chain of true order 1
        model = MarkovModel(lift_kernel(TWO_STATE.kernel, 2, 2))
        cfg = make_config(tmp_path, model=model, extra="[verify]\nchecks = bracket\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert report["checks"][0]["passed"] is True

    def test_demo_config_regenerates_checked_in_outputs(self, tmp_path):
        demo = os.path.join(ROOT, "configs", "demo.ini")
        assert cli.main(["verify", "--config", demo, "--out", str(tmp_path)]) == 0
        for name in ("verification.json", "bernstein.csv", "deviation.csv", "lil.csv"):
            with open(os.path.join(ROOT, "out", "demo", name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name

    def test_undefined_fit_written_as_null(self, tmp_path):
        # too few usable grid points: the deviation fit is undefined
        cfg = make_config(
            tmp_path,
            extra=(
                "[verify]\nchecks = deviation\ndeviation_replications = 50\n"
                "deviation_n = 32\ndeviation_eps_max = 50\ndeviation_eps_count = 3\n"
            ),
        )
        cli.main(["verify", "--config", str(cfg)])

        def reject(name):
            raise ValueError(f"bare {name} in verification.json")

        text = (tmp_path / "out" / "verification.json").read_text()
        detail = json.loads(text, parse_constant=reject)["checks"][0]["detail"]
        assert detail["slope"] is None

    def test_typicality_lengths_must_increase(self, tmp_path, capsys):
        cfg = make_config(
            tmp_path,
            extra=(
                "[verify]\nchecks = typicality\n"
                "typicality_n_small = 20000\ntypicality_n_large = 1024\n"
            ),
        )
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "verify.typicality_n_small" in err and "verify.typicality_n_large" in err
        assert not (tmp_path / "out" / "verification.json").exists()

    def test_unknown_check_named_in_error(self, tmp_path, capsys):
        cfg = make_config(tmp_path, extra="[verify]\nchecks = lemmas\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        assert "verify.checks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rho", "0"),
            ("instances", "2.5"),
            ("eta", "abc"),
            ("eta", "1.5"),
            ("bracket_beta", "x"),
            ("lil_checkpoints", "4096 1024"),
        ],
    )
    def test_bad_setting_named_in_error(self, tmp_path, capsys, key, value):
        cfg = make_config(tmp_path, extra=f"[verify]\nchecks = norm-bound\n{key} = {value}\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        assert f"verify.{key}" in capsys.readouterr().err


class TestExitCodesAndDeterminism:
    def test_missing_config_is_io_failure(self, tmp_path):
        assert cli.main(["estimate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_missing_model_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[model]\nfile = ghost.model\n[experiment]\nn_grid = 64\n")
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        assert "model.file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("grid", ["64 32", "0", "-4"])
    def test_bad_grid_names_field(self, tmp_path, capsys, grid, command):
        write_model_file(TWO_STATE, tmp_path / "chain.model")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[model]\nfile = chain.model\n[experiment]\n"
            f"n_grid = {grid}\nout = {tmp_path / 'out'}\n"
        )
        assert cli.main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "experiment.n_grid" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, spec, named",
        [
            ("cutoff", "constant", "K=<value>"),
            ("cutoff", "alphalog", "alpha=<value>"),
            ("penalty", "loglog C", "malformed parameter 'C'"),
        ],
    )
    def test_bad_spec_names_parameter(self, tmp_path, capsys, section, spec, named):
        write_model_file(TWO_STATE, tmp_path / "chain.model")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[model]\nfile = chain.model\n[experiment]\nn_grid = 64\n"
            f"[{section}]\nspec = {spec}\n"
        )
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{section}.spec" in err and named in err and "Traceback" not in err

    def test_huge_cutoff(self, tmp_path, capsys):
        # alpha * log n overflows a float; the cap floor(log n / log m) bounds kappa
        cfg = make_config(tmp_path, n_grid="100 200", reps=1)
        text = cfg.read_text().replace("spec = sublog\n", "spec = alphalog alpha=1e308\n")
        cfg.write_text(text)
        assert cli.main(["estimate", "--config", str(cfg)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        orders = {}
        for row in read_csv(tmp_path / "out" / "scores.csv")[1:]:
            orders.setdefault(int(row[0]), set()).add(int(row[2]))
        assert orders == {100: set(range(6)), 200: set(range(7))}  # kappa = floor(log2 n)

    @pytest.mark.parametrize(
        "key, spec, named",
        [
            ("penalty.spec", "bic C=5", "unknown parameter 'C'"),
            ("penalty.spec", "loglog C=5 D=3", "unknown parameter 'D'"),
            ("penalty.spec", "loglog C=5 C=7", "'C' given twice"),
            ("penalty.spec", "csiszar C=1", "unknown parameter 'C'"),
            ("penalty.specs", "loglog C=5, bic C=5", "unknown parameter 'C'"),
            ("cutoff.spec", "sublog K=3", "unknown parameter 'K'"),
            ("cutoff.spec", "constant K=3 K=4", "'K' given twice"),
            ("cutoff.spec", "sublog hard_cap=false", "unknown parameter 'hard_cap'"),
            pytest.param(
                "cutoff.spec", "constant K=1" + "0" * 400, "K is too large",
                id="cutoff.spec-constant K=10**400",
            ),
        ],
    )
    def test_spec_rejects_unknown_or_repeated_parameter(self, tmp_path, capsys, key, spec, named):
        # the line of make_config's config that sets the key
        line = {
            "penalty.spec": "spec = loglog C=5\n",
            "penalty.specs": "specs = loglog C=5, bic\n",
            "cutoff.spec": "spec = sublog\n",
        }[key]
        cfg = make_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(line, line.split("=")[0] + f"= {spec}\n"))
        command = "sweep" if key == "penalty.specs" else "estimate"
        assert cli.main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert key in err and named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, line, named",
        [
            ("model", "fiel = chain.model", "model.fiel"),
            ("experiment", "replicatons = 5", "experiment.replicatons"),
            ("penalty", "spce = bic", "penalty.spce"),
            ("cutoff", "hard_cap = false", "cutoff.hard_cap"),
            ("verify", "instanses = 5", "verify.instanses"),
            ("experimnt", "replications = 5", "[experimnt]"),
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, section, line, named):
        cfg = make_config(tmp_path, extra="[verify]\nchecks = norm-bound\n")
        text, header = cfg.read_text(), f"[{section}]\n"
        if header in text:
            cfg.write_text(text.replace(header, header + line + "\n"))
        else:
            cfg.write_text(text + header + line + "\n")
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert named in err and "unknown" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "sweep", "verify"])
    def test_byte_identical_across_runs(self, tmp_path, command):
        extra = VERIFY_EXTRA if command == "verify" else ""
        cfg = make_config(tmp_path, n_grid="256 512", reps=2, extra=extra)
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "r1")])
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "r2")])
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = make_config(tmp_path, n_grid="256", reps=1)
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s1")])
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--seed", "7"])
        assert tree_bytes(tmp_path / "s1") != tree_bytes(tmp_path / "s2")


def test_runs_without_scipy():
    # an import of scipy anywhere in the package fails this test
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "import markovorder.cli as cli\n"
        "from markovorder.diagnostics import BoundParams\n"
        "from markovorder.model import stationary_distribution\n"
        f"config = cli.load_config({os.path.join(ROOT, 'configs', 'demo.ini')!r})\n"
        "stationary_distribution(cli.read_model_file(config.model_file))\n"
        "BoundParams(0.5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_cli_imports_only_what_it_runs():
    # simulate, estimate and sweep need neither the diagnostics suite nor a
    # process pool; the package attribute still reaches the suite
    script = (
        "import sys\n"
        "import markovorder, markovorder.cli\n"
        "heavy = ('markovorder.diagnostics', 'concurrent.futures', 'multiprocessing')\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "markovorder.diagnostics.BoundParams(0.5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# -- fuzzed model files and manifests: a named failure, never a traceback -----

# names without "/", "\" or ".", so a fuzzed path-file name stays inside the
# output directory
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_characters="/\\."), max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
NUMBERS = st.lists(
    st.sampled_from(["0", "0.5", "1", "0.25", "0.75", "-1", "2", "nan", "inf", "x"]), max_size=4
).map(" ".join)
MODEL_LINES = st.lists(
    st.one_of(
        st.builds("alphabet_size: {}".format, st.integers(-2, 4) | st.text(max_size=3)),
        st.builds("order: {}".format, st.integers(-2, 3) | st.sampled_from([63, 10**30])),
        st.just("kernel:"),
        st.builds("initial: {}".format, NUMBERS),
        NUMBERS,
        st.text(max_size=10),
    ),
    max_size=8,
)


# a small demo-like config; fuzzed values hold no decimal digits except
# small integers, so no fuzzed size can grow a run past a few milliseconds
CONFIG_BASE = {
    "model": {"file": "chain.model"},
    "experiment": {"n_grid": "16 24", "replications": "2", "seed": "5", "jobs": "1",
                   "out": "out"},
    "penalty": {"spec": "loglog C=5", "specs": "loglog C=5, bic"},
    "cutoff": {"spec": "sublog"},
    "verify": {"checks": "norm-bound", "eta": "0.5", "rho": "3", "instances": "3"},
}
CONFIG_VALUES = (
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
    | st.integers(-2, 40).map(str)
    | st.sampled_from([
        "nan", "inf", "1e400", "0.5", "24 16", "%", "%(x)s", "loglog C=nan", "bic",
        "csiszar c=-1", "alphalog alpha=inf", "constant K=3 hard_cap=false",
        "alphalog alpha=1e308", "alphalog alpha=1e308 hard_cap=false", "bic C=5",
        "loglog C=5 D=3", "loglog C=5 C=7", "sublog K=3", "sublog hard_cap=no",
        "constant K=1" + "0" * 400,
    ])
)
CONFIG_KEYS = st.sampled_from(
    sorted({key for keys in CONFIG_BASE.values() for key in keys} | {"candidate_file"})
) | st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


def _fuzz_config(root) -> str:
    cfg = root / "exp.ini"
    cfg.write_text(
        "[model]\nfile = chain.model\n[experiment]\nn_grid = 16 24\nreplications = 2\n"
        f"seed = 5\nout = {root / 'out'}\n"
    )
    return str(cfg)


def _maybe_replace(data, value):
    """``value`` with some of its parts, or all of it, replaced by arbitrary JSON."""
    if data.draw(st.integers(0, 4)) == 0:
        return data.draw(JSON)
    if isinstance(value, dict):
        return {key: _maybe_replace(data, item) for key, item in value.items()}
    if isinstance(value, list):
        return [_maybe_replace(data, item) for item in value]
    return value


class TestFuzzedInputs:
    @settings(max_examples=60, deadline=None)
    @given(lines=MODEL_LINES)
    @example(lines=["alphabet_size: 2", "order: 1", "kernel:", "0.5 0.5", "0.25 0.75"])
    def test_model_file_text(self, tmp_path_factory, lines):
        root = tmp_path_factory.mktemp("model")
        (root / "chain.model").write_text("\n".join(lines) + "\n")
        cfg = _fuzz_config(root)
        for command in ("simulate", "estimate"):
            assert cli.main([command, "--config", cfg]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_path_file_bytes(self, tmp_path_factory, data):
        # a path file over twelve symbols, so one and two digits, with one
        # byte flipped, a space inserted or dropped, or its n: edited
        root = tmp_path_factory.mktemp("pathfile")
        write_model_file(random_model(12, 1, seed=3), root / "chain.model")
        cfg = _fuzz_config(root)
        assert cli.main(["simulate", "--config", cfg]) == 0
        path = root / "out" / "path_00001.txt"
        text = path.read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["flip", "space", "drop", "n"]))
            at = data.draw(st.integers(0, len(text) - 1))
            if kind == "flip":
                byte = data.draw(st.sampled_from(b"0123456789 \n:") | st.integers(0, 255))
                text = text[:at] + bytes([byte]) + text[at + 1:]
            elif kind == "space":
                text = text[:at] + b" " + text[at:]
            elif kind == "drop" and b" " in text[at:]:
                at = text.index(b" ", at)
                text = text[:at] + text[at + 1:]
            elif kind == "n":
                n = data.draw(st.sampled_from(["23", "24", "25", "", "-1", "024", "x"]))
                text = b"\n".join(
                    b"n: " + n.encode() if line.startswith(b"n:") else line
                    for line in text.split(b"\n")
                )
        path.write_bytes(text)
        code = cli.main(["estimate", "--config", cfg])
        assert code in (0, 1, 2)
        if code == 0:  # only a line that encoding a path writes is read
            fields = {}
            for line in text.split(b"\n"):
                key, _, rest = line.partition(b":")
                fields[key.strip()] = rest
            line = fields[b"symbols"][1:]
            assert cli._encode_symbols(cli._decode_symbols(path, line, 12), 12) == line

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_manifest_json(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("manifest")
        write_model_file(TWO_STATE, root / "chain.model")
        cfg = _fuzz_config(root)
        assert cli.main(["simulate", "--config", cfg]) == 0
        manifest_file = root / "out" / "manifest.json"
        manifest = _maybe_replace(data, json.loads(manifest_file.read_text()))
        manifest_file.write_text(json.dumps(manifest))
        assert cli.main(["estimate", "--config", cfg]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_config_text(self, tmp_path_factory, data):
        # keys dropped, values replaced and stray keys or lines added; the
        # output directory and --jobs come from the command line
        root = tmp_path_factory.mktemp("config")
        write_model_file(TWO_STATE, root / "chain.model")
        sections = {}
        for section, keys in CONFIG_BASE.items():
            sections[section] = []
            for key, value in keys.items():
                action = data.draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
                if action == "replace":
                    value = data.draw(CONFIG_VALUES)
                if action != "drop":
                    sections[section].append(f"{key} = {value}")
        for _ in range(data.draw(st.integers(0, 2))):
            section = data.draw(st.sampled_from([*CONFIG_BASE, "DEFAULT", "experimnt"]))
            line = data.draw(
                st.builds("{} = {}".format, CONFIG_KEYS, CONFIG_VALUES) | st.text(max_size=10)
            )
            sections.setdefault(section, []).append(line)
        cfg = root / "exp.ini"
        cfg.write_text("".join(
            f"[{section}]\n" + "".join(line + "\n" for line in lines)
            for section, lines in sections.items()
        ))
        command = data.draw(st.sampled_from(["simulate", "estimate", "sweep", "verify"]))
        argv = [command, "--config", str(cfg), "--out", str(root / "out"), "--jobs", "1"]
        assert cli.main(argv) in (0, 1, 2)
