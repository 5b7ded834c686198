"""The command-line surface: files, determinism, exit codes."""

import concurrent.futures
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovorder import MarkovModel, cli, random_model, sample_paths
from markovorder import estimator as estimator_mod
from markovorder import model as model_mod
from markovorder.diagnostics import mc as mc_mod
from markovorder._contexts import symbol_dtype
from markovorder.estimator import evaluate_replication, required_depth_cap
from markovorder.model import lift_kernel
from markovorder.modelfile import write_model_file
from markovorder.penalty import N_MIN, parse_cutoff, parse_penalty
from markovorder.rng import PHI64, derive_seed

TWO_STATE = MarkovModel([[0.7, 0.3], [0.2, 0.8]])
MASK = 0xFFFFFFFFFFFFFFFF


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def joined(spans, m):
    """The symbol arrays ``spans`` joined into one array of ``symbol_dtype(m)``."""
    return np.concatenate([np.zeros(0, symbol_dtype(m)), *spans])


def read_path(path, m, seed, n_max):
    """The symbols of a path file, its spans joined."""
    return joined(cli._read_path_file(path, m, seed, n_max), m)


def decoded(source, text, m):
    """The symbols of the line ``text``, decoded as a path file's symbols line."""
    return joined(cli._decode_line(source, io.BytesIO(text), len(text), m), m)


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
                read_path(tmp_path / "batch3" / cli._path_filename(i), 2, seed, 100),
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
                read_path(out / cli._path_filename(i), 2, seed, 64),
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

    @pytest.mark.parametrize("command", ["simulate", "estimate", "verify"])
    def test_chain_without_a_unique_law_named(self, tmp_path, capsys, command):
        # two closed classes: every command that reads the chain's law fails
        # naming the key and the file, before it writes any output
        cfg = make_config(tmp_path, n_grid="64", extra="[verify]\nchecks = bracket\n")
        (tmp_path / "chain.model").write_text("alphabet_size: 2\norder: 1\nkernel:\n1 0\n0 1\n")
        assert cli.main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"model.file: {tmp_path / 'chain.model'}: more than one closed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_law_out_of_iteration_steps_named(self, tmp_path, capsys, monkeypatch):
        # the two-state chain lifted to order 13 has one class of 2**13
        # contexts, past the dense solve; its iteration gets two steps
        monkeypatch.setattr(model_mod, "POWER_ITER_MAX", 2)
        cfg = make_config(tmp_path, n_grid="64")
        kernel = lift_kernel(TWO_STATE.kernel, 2, 13).tolist()
        rows = "".join(f"{a!r} {b!r}\n" for a, b in kernel)
        (tmp_path / "chain.model").write_text(f"alphabet_size: 2\norder: 13\nkernel:\n{rows}")
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"model.file: {tmp_path / 'chain.model'}: power iteration" in err
        assert "an initial: line spares" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_estimate_from_path_files_resolves_no_law(self, tmp_path, monkeypatch):
        # the path files hold the samples: no stationary solve is needed
        cfg = make_config(tmp_path, n_grid="64", reps=2)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0

        def no_solve(model):
            raise AssertionError("a stationary law was solved")

        monkeypatch.setattr(model_mod, "stationary_distribution", no_solve)
        monkeypatch.setattr(cli, "stationary_distribution", no_solve)
        assert cli.main(["estimate", "--config", str(cfg)]) == 0
        assert cli.main(["sweep", "--config", str(cfg)]) == 0


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
        assert np.array_equal(read_path(path, m, 99, n), symbols)

    def test_reading_copies_no_symbols_line(self, tmp_path):
        # a 2^20-symbol two-state path has a 2 MB symbols line; its spans
        # and their joined copy take one line, and the decoder's temporaries
        # a few DECODE_CHUNK windows (5 lines when they were line-sized, 11.5
        # when the line was split, partitioned and sliced out of the file)
        n = 1 << 20
        symbols = sample_paths(TWO_STATE, n, 3)[0]
        path = tmp_path / "path.txt"
        cli._write_path_file(path, symbols, 2, 3)
        tracemalloc.start()
        try:
            out = read_path(path, 2, 3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, symbols)
        assert peak < 2 * 2 * n

    def test_path_file_streamed_both_ways(self, tmp_path):
        # a 2^20-symbol two-state path (a 2 MB line) is written a run of
        # ENCODE_CHUNK symbols at a time, and read back a DECODE_CHUNK window
        # at a time: reading yields the symbols a span at a time and holds a
        # few windows, not the file nor the path
        n = 1 << 20
        symbols = sample_paths(TWO_STATE, n, 3)[0]
        path = tmp_path / "path.txt"
        tracemalloc.start()
        try:
            cli._write_path_file(path, symbols, 2, 3)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            done = 0
            for span in cli._read_path_file(path, 2, 3, n):
                assert np.array_equal(span, symbols[done:done + span.size])
                done += span.size
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2 * n and done == n
        assert written < 4 * cli.DECODE_CHUNK
        assert read < 12 * cli.DECODE_CHUNK

    def test_replication_from_a_path_file_holds_no_path(self, tmp_path):
        # one replication scored from a 2^21-symbol two-state path file (a
        # 4 MB line) holds a few decoder windows and the count tables, not
        # the 2 MB path: 0.7 MB traced, against 2.8 MB when the file was
        # decoded whole; its rows equal those of the path sampled inline
        n = 1 << 21
        pen, cut = parse_penalty("loglog C=5"), parse_cutoff("sublog")
        grid = [2**k for k in range(16, 22)]
        cap = required_depth_cap(cut, grid, 2)
        path = tmp_path / "path.txt"
        cli._write_path_file(path, sample_paths(TWO_STATE, n, 5)[0], 2, 5)
        score = partial(evaluate_replication, TWO_STATE, (pen,), cut)
        task = (0, 5, str(path))
        score(grid[:2], cap, cli._read_path_file, task)
        tracemalloc.start()
        try:
            rows = score(grid, cap, cli._read_path_file, task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == score(grid, cap, None, (0, 5, None))
        assert peak < 1_500_000

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("m", [2, 11, 1000])
    def test_streamed_path_files_match_whole_lines(self, tmp_path, monkeypatch, m, chunk):
        # runs and windows of 1, 3 or 7 write the joined text and read back
        # the symbols and errors of one window over the whole file, even
        # with the fields out of order, repeated or after the symbols line
        symbols = np.random.default_rng(m).integers(0, m, 40)
        line = " ".join(map(str, symbols.tolist())).encode()
        head = b"alphabet_size: %d\nn: 40\nseed: 5\n" % m
        whole = head + b"symbols: " + line + b"\n"
        cut = len(line) // 2 + 1  # a symbol that straddles a window edge goes bad
        space = line.index(b" ", cut)
        variants = [
            whole,
            head + b"symbols: " + line[:cut] + b"x" + line[cut + 1:] + b"\n",
            head + b"symbols: " + line[:space] + b" " + line[space:] + b"\n",
            head + b"symbols: " + line[:cut] + b"9999" + line[cut:] + b"\n",
            head + b"symbols: " + line + b" \n",
            b"symbols: " + line + b"\nseed: 5\nn: 40\nalphabet_size: %d" % m,
            head + b"symbols: 1\n  symbols : " + line + b"\n",
            head + b"symbols: " + line + b"\nsymbols\n",
            head + b"symbols:" + line + b"\n",
            head.replace(b"n: 40", b"n: 39") + b"symbols: " + line + b"\n",
            head.replace(b"seed: 5", b"seed: 6") + b"symbols: " + line + b"x\n",
        ]

        def read(data):
            path = tmp_path / "path.txt"
            path.write_bytes(data)
            try:
                return read_path(path, m, 5, 40).tolist()
            except cli.ConfigError as exc:
                return str(exc)

        expected = [read(data) for data in variants]
        assert expected[0] == expected[5] == expected[6] == symbols.tolist()
        assert [str(e).split(": ", 1)[1] for e in expected[7:]] == [
            "symbols: no space after 'symbols:'",
            "symbols: no space after 'symbols:'",
            "n is '39', the symbols line holds 40",
            "seed is '6', this run has '5'",
        ]
        assert "at offset %d is not a digit" % cut in expected[1]
        assert "is empty" in expected[2] and "9999" in expected[3] and "is empty" in expected[4]
        monkeypatch.setattr(cli, "ENCODE_CHUNK", chunk)
        monkeypatch.setattr(cli, "DECODE_CHUNK", chunk)
        cli._write_path_file(tmp_path / "path.txt", symbols, m, 5)
        assert (tmp_path / "path.txt").read_bytes() == whole
        assert [read(data) for data in variants] == expected

    @pytest.mark.parametrize("m, chunk", [(2, 1), (11, 3), (1000, 7)])
    def test_chunked_encoding_matches_joined_text(self, tmp_path, monkeypatch, m, chunk):
        # the writer encodes runs of ENCODE_CHUNK symbols, each alone
        monkeypatch.setattr(cli, "ENCODE_CHUNK", chunk)
        symbols = np.random.default_rng(m).integers(0, m, 50)
        cli._write_path_file(tmp_path / "path.txt", symbols, m, 5)
        line = (tmp_path / "path.txt").read_bytes().split(b"symbols: ")[1]
        assert line == " ".join(map(str, symbols.tolist())).encode() + b"\n"

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.sampled_from([2, 11, 101, 257]),
        text=st.lists(st.sampled_from(b"00123456789   x"), max_size=40).map(bytes),
        chunk=st.integers(1, 7),
    )
    @example(m=2, text=b"0 1  1", chunk=2)  # a span cut between two spaces
    @example(m=2, text=b"0 1 ", chunk=3)  # a cut at the trailing space
    def test_chunked_decoding_matches_one_span(self, m, text, chunk):
        # a line decoded DECODE_CHUNK bytes at a time gives the symbols, or
        # the message (offset, symbol index), of decoding it as one span
        def decode():
            try:
                return decoded("p", text, m).tolist()
            except cli.ConfigError as exc:
                return str(exc)

        whole = decode()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "DECODE_CHUNK", chunk)
            assert decode() == whole
        if isinstance(whole, list):
            assert whole == [int(t) for t in text.split(b" ")] if text else whole == []

    @pytest.mark.parametrize("m", [11, 101, 1001])
    @pytest.mark.parametrize("text", [b"0", b"7 10", b"3 5 10", b"10 3 5"])
    def test_short_symbols_at_line_start(self, m, text):
        # the higher digits of the first symbols would lie before the line
        assert decoded("p", text, m).tolist() == [int(t) for t in text.split()]

    @pytest.mark.parametrize(
        "m, text, token",
        [(256, b"7 256 1", "256"), (200, b"3 999", "999"), (200, b"300", "300")],
    )
    def test_symbols_that_wrap_in_uint8_rejected(self, m, text, token):
        # 256, 999 and 300 wrap to 0, 231 and 44 in uint8
        with pytest.raises(cli.ConfigError, match=f"is '{token}', not one of 0..{m - 1}"):
            decoded("p", text, m)
        good = decoded("p", b"0 %d 1" % (m - 1), m)
        assert good.dtype == np.uint8 and good.tolist() == [0, m - 1, 1]
        assert decoded("p", b"256 0", 257).dtype == np.uint16

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

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda h, s: (h, s[:3000] + b"2" + s[3001:]), "symbol 1500 is '2', not one of 0..1"),
            (
                lambda h, s: (h.replace(b"n: 2048", b"n: 2047"), s),
                "n is '2047', the symbols line holds 2048",
            ),
        ],
        ids=["symbol", "n-mismatch"],
    )
    def test_fault_past_the_grid_rejected(self, tmp_path, capsys, monkeypatch, corrupt, named):
        # paths of 2048 symbols read by a grid that ends at 1024: the counts
        # stop at symbol 1024, but the file is still read to its end and
        # checked before any table is written; 256-byte windows put symbol
        # 1500 in a later span than the grid's end
        monkeypatch.setattr(cli, "DECODE_CHUNK", 256)
        cfg = make_config(tmp_path, n_grid="256 2048", reps=2)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        make_config(tmp_path, n_grid="256 1024", reps=2)
        path = tmp_path / "out" / "path_00001.txt"
        head, symbols = path.read_bytes().split(b"symbols: ")
        head, symbols = corrupt(head, symbols)
        path.write_bytes(head + b"symbols: " + symbols)
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "path_00001.txt" in err and named in err and "Traceback" not in err
        assert not list((tmp_path / "out").glob("*.csv"))


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

    def test_sandwich_short_of_instances_fails(self, tmp_path):
        # at n = 8 the typicality event is rare: the battery's 2000 attempts
        # give 77 of the 100 instances asked for
        cfg = make_config(
            tmp_path,
            extra="[verify]\nchecks = hellinger-sandwich\ninstances = 100\nsandwich_n = 8\n",
        )
        assert cli.main(["verify", "--config", str(cfg), "--seed", "20240810"]) == 1
        report = json.loads((tmp_path / "out" / "verification.json").read_text())
        (check,) = report["checks"]
        assert report["all_gating_passed"] is False and check["passed"] is False
        detail = check["detail"]
        assert (detail["instances"], detail["attempted"], detail["violations"]) == (77, 2000, 0)
        assert detail["passed"] is False

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

    def test_rerun_replaces_earlier_outputs(self, tmp_path, monkeypatch):
        # a run that selects fewer checks leaves none of an earlier run's grids
        # beside its report; the output directory is given relative to the
        # working directory
        monkeypatch.chdir(tmp_path)
        cfg = make_config(
            tmp_path,
            extra=(
                "[verify]\nchecks = bernstein deviation\nbernstein_replications = 10000\n"
                "bernstein_n = 16\ndeviation_replications = 200\ndeviation_n = 32\n"
            ),
        )
        assert cli.main(["verify", "--config", str(cfg), "--out", "out"]) == 0
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["bernstein.csv", "deviation.csv", "verification.json"]
        cfg = make_config(tmp_path, extra="[verify]\nchecks = norm-bound\ninstances = 5\n")
        assert cli.main(["verify", "--config", str(cfg), "--out", "out", "--seed", "9"]) == 0
        assert os.listdir(out) == ["verification.json"]
        report = json.loads((out / "verification.json").read_text())
        assert [check["name"] for check in report["checks"]] == ["norm-bound"]
        # a run cut short leaves no report at all
        from markovorder import diagnostics

        def cut_short(*args):
            raise RuntimeError("cut short")

        monkeypatch.setattr(diagnostics, "norm_bound_battery", cut_short)
        assert cli.main(["verify", "--config", str(cfg), "--out", "out"]) == 1
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "key, value",
        [
            # malformed values
            ("rho", "0"),
            ("instances", "2.5"),
            ("eta", "abc"),
            ("eta", "1.5"),
            ("bracket_beta", "x"),
            ("lil_checkpoints", "4096 1024"),
            # well-formed values that a check cannot run with
            ("bernstein_replications", "100"),
            ("sandwich_n", "2"),
            ("typicality_n_small", "1"),
            ("deviation_r", "1"),
            ("rho", "200"),
            ("lil_checkpoints", "4 8"),
            ("bracket_beta", "-1"),
            ("bernstein_n", "1"),
            ("deviation_n", "1"),
            ("bracket_sigma", "-1"),
            ("bracket_sigma", "0"),
            ("candidate_file", "three_symbols.model"),
            ("candidate_file", "truncated.model"),
            ("bernstein_r", "order_two.model"),  # a candidate above bernstein_r = 1
            # orders whose m**r tables pass model.TABLE_CELLS
            ("deviation_r", "24"),
            # orders whose 20 000 lanes' count tables pass mc.DEVIATION_CELLS
            ("deviation_r", "16"),
            ("deviation_r", "23"),
            ("bernstein_r", "30"),
            ("rho", "40"),
            # 20 000 lanes' count tables past mc.DEVIATION_CELLS, set by rho's
            # typicality window of 2**24 cells, not by deviation_r = 2
            pytest.param("rho", {"rho": "25", "checks": "deviation"}, id="rho-25-deviation"),
            # a bracket grid too fine for exact keys, envelopes past the
            # largest float
            ("bracket_sigma", "1e-300"),
            ("bracket_beta", "1e300"),
        ],
    )
    def test_bad_setting_named_in_error(self, tmp_path, capsys, monkeypatch, key, value):
        from markovorder import diagnostics

        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in VERIFY_ENTRY_POINTS:
            monkeypatch.setattr(diagnostics, name, never)
        write_model_file(MarkovModel([[0.2, 0.3, 0.5]] * 3), tmp_path / "three_symbols.model")
        write_model_file(MarkovModel(lift_kernel(TWO_STATE.kernel, 2, 2)), tmp_path / "order_two.model")
        (tmp_path / "truncated.model").write_text("alphabet_size: 2\norder: 1\nkernel:\n0.5 0.5\n")
        if isinstance(value, dict):  # several settings, the check's own
            settings = value
        elif value.endswith(".model"):
            settings = {"candidate_file": value}
        else:
            settings = {key: value}
        cfg = demo_config(tmp_path, settings)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"verify.{key}" in err and "Traceback" not in err
        assert not out.exists()


# every diagnostics function verify calls
VERIFY_ENTRY_POINTS = (
    "norm_bound_battery",
    "hellinger_sandwich_battery",
    "hellinger_stationary_distance",
    "bernstein_mc_check",
    "bracket_battery",
    "bracket_count_check",
    "deviation_tail_mc",
    "lil_trajectory",
    "typicality_trend",
)


def demo_config(tmp_path, settings: dict):
    """configs/demo.ini, with its model beside it and the given [verify]
    settings replaced or added ([verify] is the file's last section)."""
    with open(os.path.join(ROOT, "configs", "two_state.model"), "rb") as fh:
        (tmp_path / "two_state.model").write_bytes(fh.read())
    with open(os.path.join(ROOT, "configs", "demo.ini")) as fh:
        lines = [line for line in fh if line.split("=")[0].strip() not in settings]
    cfg = tmp_path / "demo.ini"
    cfg.write_text("".join(lines) + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    return cfg


class TestExitCodesAndDeterminism:
    def test_missing_config_is_io_failure(self, tmp_path):
        assert cli.main(["estimate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_missing_model_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[model]\nfile = ghost.model\n[experiment]\nn_grid = 64\n")
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        assert "model.file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "estimate", "sweep", "verify"])
    @pytest.mark.parametrize("grid", ["64 32", "0", "-4", f"64 {2**48}"])
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

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    @pytest.mark.parametrize("source", ["inline", "path-files"])
    def test_grid_below_depth_cap_names_field(self, tmp_path, capsys, monkeypatch, command, source):
        # sublog needs depth 3 on this grid (kappa(4096) = 4), and the first
        # table is built at n = 3
        cfg = make_config(tmp_path, n_grid="3 4096", reps=2)
        if source == "path-files":
            assert cli.main(["simulate", "--config", str(cfg)]) == 0
        else:
            assert not (tmp_path / "out").exists()

        def no_path(*args):
            raise AssertionError("a path was sampled or read before the grid was checked")

        monkeypatch.setattr(estimator_mod, "sampled_counts", no_path)
        monkeypatch.setattr(cli, "_read_path_file", no_path)
        assert cli.main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "experiment.n_grid" in err and "depth cap 3" in err and "sublog" in err
        assert (tmp_path / "out").exists() == (source == "path-files")

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    @pytest.mark.parametrize("source", ["inline", "path-files"])
    def test_grid_below_cutoff_minimum_names_field(
        self, tmp_path, capsys, monkeypatch, command, source
    ):
        cfg = make_config(tmp_path, n_grid="2 64", reps=2)
        if source == "path-files":
            assert cli.main(["simulate", "--config", str(cfg)]) == 0

        def no_path(*args):
            raise AssertionError("a path was sampled or read before the grid was checked")

        monkeypatch.setattr(estimator_mod, "sampled_counts", no_path)
        monkeypatch.setattr(cli, "_read_path_file", no_path)
        assert cli.main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "experiment.n_grid" in err and f"is below {N_MIN}" in err and N_MIN == 3
        assert (tmp_path / "out").exists() == (source == "path-files")

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
        "command, settings, error",
        [
            ("simulate", {"replications": 10**14}, "config error: experiment.replications:"),
            ("estimate", {"n_grid": f"1024 {10**15}"}, "config error: experiment.n_grid:"),
            (
                "verify",
                {"checks": "typicality", "typicality_n_large": 10**15},
                "config error: verify.typicality_n_large:",
            ),
            (
                "verify",
                {"checks": "lil", "lil_checkpoints": f"1024 {10**15}"},
                "config error: verify.lil_checkpoints:",
            ),
            (
                "verify",
                {"checks": "deviation", "deviation_eps_count": 10**15},
                "config error: verify.deviation_eps_count:",
            ),
        ],
        ids=[
            "replications", "n_grid", "typicality_n_large", "lil_checkpoints",
            "deviation_eps_count",
        ],
    )
    def test_size_past_memory_is_an_error(self, tmp_path, capsys, command, settings, error):
        # each setting sizes an array past 2**48 bytes, more than an address
        # space holds; the config bounds each one, naming its key, before
        # anything is allocated (a path is sampled straight into its counts,
        # so nothing else would bound n_grid or the last lil checkpoint)
        cfg = demo_config(tmp_path, {})
        text = cfg.read_text()
        for key, value in settings.items():
            text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
            assert count == 1
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err
        assert not [path for path in out.rglob("*") if path.is_file()]

    def test_replications_bounded(self, tmp_path):
        assert cli.load_config(str(make_config(tmp_path, reps=2**24))).replications == 2**24
        with pytest.raises(ValueError, match=r"^experiment.replications: must be at most 2\*\*24"):
            cli.load_config(str(make_config(tmp_path, reps=2**24 + 1)))

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

    def test_repeated_key_named(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("seed = 4242\n", "seed = 4242\nseed = 7\n"))
        assert cli.main(["estimate", "--config", str(cfg)]) == 1
        assert "experiment.seed: repeated on line 7" in capsys.readouterr().err

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


def test_cli_imports_only_what_it_runs(tmp_path):
    # the CLI module loads no scoring code, diagnostics suite or process
    # pool; no command maps OpenSSL through hashlib: verify and inline
    # estimate write no manifest, and simulate, then estimate and sweep from
    # its path files, label the chain with the built-in SHA-1, the demo
    # chain as before; the package attribute still reaches the suite
    script = (
        "import sys\n"
        "import markovorder, markovorder.cli as cli\n"
        "heavy = ('markovorder.counts', 'markovorder.tally', 'markovorder.likelihood',\n"
        "         'markovorder.estimator', 'markovorder.diagnostics', 'concurrent.futures',\n"
        "         'multiprocessing',\n"
        "         'hashlib', '_hashlib')\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"demo, out = {os.path.join(ROOT, 'configs', 'demo.ini')!r}, {str(tmp_path)!r}\n"
        "runs = [('verify', '/verify'), ('estimate', '/estimate')]\n"
        "runs += [(command, '/simulate') for command in ('simulate', 'estimate', 'sweep')]\n"
        "for command, where in runs:\n"
        "    assert cli.main([command, '--config', demo, '--out', out + where]) == 0\n"
        "    loaded = [name for name in ('hashlib', '_hashlib') if name in sys.modules]\n"
        "    assert not loaded, (command, where, loaded)\n"
        "markovorder.diagnostics.BoundParams(0.5)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "simulate" / "manifest.json").read_text())
    assert manifest["model_label"] == "m2-r1-d82a3296"
    for name in ("estimates.csv", "scores.csv", "recovery.csv"):  # read from the path files
        assert (tmp_path / "simulate" / name).read_bytes() == (tmp_path / "estimate" / name).read_bytes()


def _run_with_blas_threads(script: str, threads: str | None) -> str:
    """The output of ``script`` run in a fresh interpreter with
    OPENBLAS_NUM_THREADS set to ``threads``, or removed when it is None."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_command_process_runs_one_thread():
    # the CLI module pins numpy's OpenBLAS to one thread before numpy loads,
    # over an inherited value too, so a command process starts no pool
    script = "import os\nimport markovorder.cli\nprint(len(os.listdir('/proc/self/task')))\n"
    for threads in (None, "4"):
        assert _run_with_blas_threads(script, threads) == "1\n", threads


def test_stationary_law_ignores_inherited_blas_threads():
    # a 256-context chain: the bits of its dense solve follow the BLAS
    # thread count, so they would follow the core count without the pin
    script = (
        "import hashlib\n"
        "import markovorder.cli\n"
        "from markovorder.model import random_model, stationary_distribution\n"
        "law = stationary_distribution(random_model(2, 8, 1, 0.01))\n"
        "print(hashlib.sha256(law.tobytes()).hexdigest())\n"
    )
    digests = {_run_with_blas_threads(script, threads) for threads in ("1", "2", None)}
    assert len(digests) == 1, digests


def test_package_names_resolve_on_first_read():
    # the lazy namespace: each name is the object its module defines, dir()
    # lists every name, and an unknown name is an AttributeError
    import importlib

    import markovorder

    for name, module in markovorder._EXPORTS.items():
        defined = importlib.import_module(f"markovorder.{module}")
        if name != module:
            defined = getattr(defined, name)
        namespace = {}
        exec(f"from markovorder import {name}", namespace)
        assert namespace[name] is defined, name
    assert set(markovorder._EXPORTS) <= set(dir(markovorder))
    assert "diagnostics" not in markovorder.__all__
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        markovorder.no_such_name


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
    # every check, each at a size that runs in a few milliseconds
    "verify": {
        "checks": "norm-bound hellinger-sandwich bernstein bracket deviation lil typicality",
        "eta": "0.5", "rho": "2", "instances": "2", "sandwich_n": "8",
        "bernstein_replications": "10000", "bernstein_n": "4", "bernstein_r": "1",
        "deviation_replications": "20", "deviation_n": "8", "deviation_r": "2",
        "deviation_eps_max": "4", "deviation_eps_count": "3", "lil_checkpoints": "16 32",
        "lil_seeds": "1", "typicality_n_small": "8", "typicality_n_large": "16",
        "typicality_seeds": "2", "bracket_beta": "0.5", "bracket_kernels": "2",
        "bracket_paths": "2", "bracket_path_len": "8", "bracket_sigma": "0.01",
        "bracket_samples": "10",
    },
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
# [verify] values: tables grow as m**rho and m**r, and a replication count or
# length as large as 12 keeps every check within milliseconds
VERIFY_VALUES = (
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
    | st.integers(-2, 12).map(str)
    | st.sampled_from(["nan", "inf", "1e400", "0.5", "-0.5", "24 16", "4 8", "16", "15 16"])
)
CONFIG_KEYS = st.sampled_from(
    sorted({key for keys in CONFIG_BASE.values() for key in keys} | {"candidate_file"})
) | st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


# what an exit-1 message names: a config key, a command-line flag, or, where
# there is no key, the unknown section or the config line the INI grammar
# cannot read
NAMED = re.compile(
    r"\b(model|experiment|penalty|cutoff|verify)\.[^\s:]+|--[a-z]+"
    r"|\[[^\]]*\]: unknown section|\bline:? +\d+"
)


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
            assert cli._encode_symbols(decoded(path, line, 12), 12) == line

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
        # output directory and --jobs come from the command line.  verify
        # keeps the other sections as they are, so that its runs reach the
        # checks, and no [verify] key is dropped: a size would run at its
        # default, far from tiny
        root = tmp_path_factory.mktemp("config")
        write_model_file(TWO_STATE, root / "chain.model")
        command = data.draw(st.sampled_from(["simulate", "estimate", "sweep", "verify"]))
        sections = {}
        for section, keys in CONFIG_BASE.items():
            sections[section] = []
            for key, value in keys.items():
                if section == "verify":
                    action = data.draw(st.sampled_from(["keep"] * 7 + ["replace"]))
                    if action == "replace":
                        value = data.draw(VERIFY_VALUES)
                elif command != "verify":
                    action = data.draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
                    if action == "drop":
                        continue
                    if action == "replace":
                        value = data.draw(CONFIG_VALUES)
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
        argv = [command, "--config", str(cfg), "--out", str(root / "out"), "--jobs", "1"]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        message = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in message
        # a failed verify check exits 1 with nothing on stderr
        if code == 1 and message:
            assert NAMED.search(message), message
