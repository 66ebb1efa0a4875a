"""The parsed-panel cache of the command line (``cli._load``): a hit gives
what a miss gives (the panel's bits, label types, names and warnings, and the
command's output), a damaged entry, an unusable cache directory or a refused
file changes no result, the library's reader writes nothing, and a command
hashes its input once."""

import argparse
import codecs
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import stat
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import multidid as m
from multidid import cli
from multidid import panel as panel_mod

from .test_properties import csv_texts


@contextlib.contextmanager
def _parses():
    """One item per read inside the block that parsed the text. The spy is on
    ``_plain``, which each parse calls once and a cache hit never calls."""
    real, calls = panel_mod._plain, []

    def spy(data):
        calls.append(1)
        return real(data)
    with mock.patch.object(panel_mod, "_plain", spy):
        yield calls


def _args(path, treatments=None) -> argparse.Namespace:
    """The options ``cli._load`` reads: ``--input path --treatments a,b``."""
    return argparse.Namespace(input=str(path), treatments=treatments and ",".join(treatments))


def _outcome(path, treatments=None):
    """What the command line's load gives: the labels with their types, the
    treatment names and the value bits, or the exception's class and message;
    plus the standard error it wrote, every warning's text."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            p, _ = cli._load(_args(path, treatments))
        except (ValueError, m.MultiDidError, cli._UsageError) as exc:
            result = (type(exc), str(exc))
        else:
            result = (p.group_labels, tuple(map(type, p.group_labels)), p.period_labels,
                      tuple(map(type, p.period_labels)), p.treatment_names, p.d.shape,
                      p.y.tobytes(), p.n.tobytes(), p.d.tobytes(), p.binary_treatments)
    return result, err.getvalue()


def _run(*argv):
    """``cli.main(argv)`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _entries(cache):
    return sorted(cache.iterdir()) if cache.exists() else []


def _write(path, text: str, bom=False, end="\n") -> str:
    path.write_bytes(codecs.BOM_UTF8 * bom + text.replace("\n", end).encode())
    return str(path)


# labels of G groups spelled as ints, floats, strs or ints past int64, which
# the reader keeps as int, float, str and int
LABELS = {"int": "{}", "float": "{}.5", "str": "g{}", "past int64": str(2**64) + "{}"}
# 0.5 and 0.5000000000001, and -1e-13 and 0, are one treatment value each
TREATMENT_VALUES = ("0", "1", "0.5", "0.5000000000001", "-1e-13", "2", "1e300")


@st.composite
def panel_texts(draw):
    """(text, bom, line end): a valid panel of any label kind, with non-binary
    treatment values that canonicalize, an optional extra column and
    optionally quoted labels."""
    G, T, K = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    group, period = (draw(st.sampled_from(sorted(LABELS))) for _ in range(2))
    quote = '"' * draw(st.booleans())
    names = ["g", "t", "y", "n", *(f"d{k}" for k in range(1, K + 1))]
    names += ["note"] * draw(st.booleans())
    rows = [",".join(names)]
    for g in range(G):
        for t in range(T):
            values = [f"{quote}{LABELS[group].format(g)}{quote}", LABELS[period].format(t),
                      repr(draw(st.floats(-1e6, 1e6))), repr(draw(st.floats(0.5, 4.0))),
                      *draw(st.lists(st.sampled_from(TREATMENT_VALUES), min_size=K,
                                     max_size=K))]
            rows.append(",".join(values + ["x"] * (len(names) - len(values))))
    return "\n".join(rows) + "\n", draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"]))


@given(csv_texts(), st.booleans())
@example(("g,t,y,d1\n1,1,0,0\n1,1,0,1\n2,1,0,0\n2,2,0,0\n", None, False), False)
def test_a_hit_reads_what_a_miss_reads(tmp_path_factory, case, bom):
    """On the reader's property texts (labels of every kind, extra columns,
    quotes, defects, every line end), with or without a BOM: the second load
    of a text read successfully is a hit and gives what the first gave,
    warnings included; a refused text leaves no entry and is parsed again,
    unless ``--treatments`` names a column twice, which refuses it unparsed."""
    text, treatments, _ = case
    directory = tmp_path_factory.mktemp("hit")
    path = _write(directory / "panel.csv", text, bom)
    cache = directory / "cache" / "multidid"
    with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(cache.parent)):
        with _parses() as first:
            miss = _outcome(path, treatments)
        with _parses() as second:
            hit = _outcome(path, treatments)
    assert hit == miss
    refused = isinstance(miss[0][0], type)
    parsed = int(miss[0][0] is not cli._UsageError)
    assert (len(first), len(second), len(_entries(cache))) == \
        ((parsed, parsed, 0) if refused else (1, 0, 1))


@given(panel_texts())
def test_a_hit_gives_the_same_panel_and_command_output(tmp_path_factory, case):
    """Int, float, str and past-int64 labels keep their types, canonicalized
    non-binary treatments their bits, and ``didm``'s report and warnings
    their bytes, on a hit as on the miss that wrote the entry."""
    text, bom, end = case
    directory = tmp_path_factory.mktemp("panel")
    path = _write(directory / "panel.csv", text, bom, end)
    cache = directory / "cache" / "multidid"
    with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(cache.parent)):
        with _parses() as parsed:
            reads = [_outcome(path) for _ in range(2)]
            runs = [_run("didm", "--input", path, "--target", "d1") for _ in range(2)]
    assert not isinstance(reads[0][0][0], type)
    assert reads[0] == reads[1] and runs[0] == runs[1]
    assert len(parsed) == 1 and len(_entries(cache)) == 1


STATIC = m.DgpSpec(kind="random-binary", n_groups=6, n_periods=4, n_treatments=2,
                   cell_sizes="random", base_effects=(1.0, 0.5))


def _panel_file(tmp_path, seed=0, name="panel.csv") -> str:
    path = tmp_path / name
    m.write_panel_csv(m.generate(dataclasses.replace(STATIC, seed=seed)).panel, path)
    return str(path)


def _edited_label(entry: bytes) -> bytes:
    header, payload = entry.split(b"\n", 1)
    fields = json.loads(header)
    fields["groups"][0] = 7
    return json.dumps(fields).encode() + b"\n" + payload


@pytest.mark.parametrize("damage", [
    lambda e: e[:-8],                                   # truncated payload
    lambda e: e[:e.index(b"\n")],                       # header alone
    lambda e: b"[" + e[1:],                             # header not JSON
    lambda e: b"[1, 2]\n" + e.split(b"\n", 1)[1],       # header not an object
    lambda e: e[:-1] + bytes([e[-1] ^ 1]),              # one payload bit flipped
    _edited_label,                                      # a label edited, digest kept
    lambda e: b"",                                      # empty
], ids=["truncated", "header alone", "garbled header", "header not an object",
        "tampered payload", "edited label", "empty"])
def test_a_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, panel_cache, damage):
    path = _panel_file(tmp_path)
    want = _outcome(path)
    (entry,) = _entries(panel_cache)
    whole = entry.read_bytes()
    entry.write_bytes(damage(whole))
    with _parses() as parsed:
        assert _outcome(path) == want
    assert parsed == [1] and entry.read_bytes() == whole


@pytest.mark.parametrize("blocked", ["a file in the way", "relative paths"])
def test_an_unusable_cache_reads_the_file_as_before(tmp_path, monkeypatch, blocked):
    """A cache directory that cannot be made (a file stands at its place), or
    no absolute place for it, leaves every command reading the file, with the
    same output and nothing written."""
    path = _panel_file(tmp_path)
    want = _run("decompose", "--input", path, "--target", "d1")
    if blocked == "a file in the way":
        (tmp_path / "blocked").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocked"))
    else:
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        monkeypatch.setenv("HOME", "home")
    listing = sorted(tmp_path.iterdir())
    with _parses() as parsed:
        assert [_run("decompose", "--input", path, "--target", "d1")
                for _ in range(2)] == [want, want]
    assert parsed == [1, 1] and sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize("text, error", [
    ("g,t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n", "UnbalancedPanel"),
    ("g,t,y,d1\n1,1,0,0\n1,2,0,1\n2,1,0,0\n2,2,0,\xff\n", "InvalidEncoding"),
])
def test_a_refused_file_leaves_no_entry(tmp_path, panel_cache, text, error):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("latin-1"))
    runs = [_run("didm", "--input", str(path), "--target", "d1") for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 3 and runs[0][2].startswith(f"error: {error}")
    assert not panel_cache.exists()


def test_each_treatment_list_has_its_own_entry(tmp_path, panel_cache):
    """The treatment columns are part of the key: each ``--treatments`` reads
    the file once, into an entry of its own, in a directory only its user may
    open."""
    path = _panel_file(tmp_path)
    commands = [("didm", "--input", path, "--target", "d1", *option)
                for option in ((), ("--treatments", "d2,d1"), ("--treatments", "D1"))]
    with _parses() as parsed:
        first = [_run(*argv) for argv in commands]
    assert len(parsed) == 3 and len(_entries(panel_cache)) == 3
    assert len({out for _, out, _ in first}) == 3
    with _parses() as parsed:
        assert [_run(*argv) for argv in commands] == first
    assert parsed == [] and len(_entries(panel_cache)) == 3
    assert stat.S_IMODE(panel_cache.stat().st_mode) == 0o700


@pytest.mark.parametrize("shared", ["group-writable", "world-writable", "another owner"])
def test_a_directory_others_may_write_is_not_used(tmp_path, panel_cache, monkeypatch,
                                                  shared):
    """An entry planted under a file's name, whole and with a good digest,
    is a hit in the user's own directory; once others may write there, or it
    is not the user's, the file is read instead and nothing is written."""
    paths = [_panel_file(tmp_path, seed, f"p{seed}.csv") for seed in range(2)]
    want = [_outcome(path) for path in paths]
    entries = _entries(panel_cache)
    planted = {entry: entry.read_bytes() for entry in entries}
    for entry in entries:  # each file's name now holds the other file's panel
        entry.write_bytes(planted[entries[1 - entries.index(entry)]])
    planted = {entry: entry.read_bytes() for entry in entries}
    with _parses() as parsed:
        assert [_outcome(path) for path in paths] == want[::-1]
    assert parsed == []
    if shared == "another owner":
        monkeypatch.setattr(os, "getuid", lambda real=os.getuid(): real + 1)
    else:
        panel_cache.chmod(0o770 if shared == "group-writable" else 0o702)
    with _parses() as parsed:
        assert [_outcome(path) for path in paths] == want
    assert parsed == [1, 1]
    assert {entry: entry.read_bytes() for entry in _entries(panel_cache)} == planted


def test_the_size_bound_evicts_the_least_recently_used_entry(tmp_path, panel_cache,
                                                              monkeypatch):
    """With room for two entries, a third evicts the one least recently used;
    a hit counts as a use. An entry larger than the bound is not written, and
    evicts nothing."""
    paths = [_panel_file(tmp_path, seed, f"p{seed}.csv") for seed in range(3)]
    _outcome(paths[0])
    (first,) = _entries(panel_cache)
    _outcome(paths[1])
    (second,) = set(_entries(panel_cache)) - {first}
    assert first.stat().st_size == second.stat().st_size
    monkeypatch.setattr(cli, "_CACHE_BOUND", 2 * first.stat().st_size)
    os.utime(first, ns=(10**9, 10**9))  # first the older, until its hit
    os.utime(second, ns=(2 * 10**9, 2 * 10**9))
    with _parses() as parsed:
        _outcome(paths[0])
    assert parsed == []
    _outcome(paths[2])
    kept = _entries(panel_cache)
    assert len(kept) == 2 and first in kept and second not in kept
    large = tmp_path / "large.csv"
    m.write_panel_csv(m.generate(dataclasses.replace(STATIC, n_groups=30)).panel, large)
    with _parses() as parsed:
        assert _outcome(large) == _outcome(large)
    assert parsed == [1, 1] and _entries(panel_cache) == kept


def test_a_failed_write_leaves_no_temporary_file(tmp_path, panel_cache):
    """An entry that cannot take its place (a directory stands at its name)
    leaves the read's result as it was and no temporary file behind."""
    path = _panel_file(tmp_path)
    want = _outcome(path)
    (entry,) = _entries(panel_cache)
    entry.unlink()
    (entry / "in the way").mkdir(parents=True)
    with _parses() as parsed:
        assert _outcome(path) == want
    assert parsed == [1] and _entries(panel_cache) == [entry]


def _loaded_bits(path):
    """The panel ``cli._load`` gives for ``path``, as its labels and value bits."""
    p, _ = cli._load(_args(path))
    return p.group_labels, p.period_labels, p.y.tobytes(), p.n.tobytes(), p.d.tobytes()


def test_concurrent_reads_share_one_cache(tmp_path, panel_cache):
    """Four processes, the cache's real traffic of separate commands, each
    load two files again and again: every load gives the panel one load alone
    gives, and the cache ends with one whole entry per file and no temporary
    file. (Processes, not threads: ``warnings.catch_warnings``, which a miss
    enters, is not thread-safe.)"""
    paths = [_panel_file(tmp_path, seed, f"p{seed}.csv") for seed in range(2)]
    want = [_loaded_bits(path) for path in paths]
    for entry in _entries(panel_cache):
        entry.unlink()
    with concurrent.futures.ProcessPoolExecutor(
            4, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_loaded_bits, paths[i % 2]) for i in range(48)]
        got = [future.result(timeout=120) for future in futures]
    assert got == [want[i % 2] for i in range(48)]
    assert len(_entries(panel_cache)) == 2
    with _parses() as parsed:
        assert [_loaded_bits(path) for path in paths] == want
    assert parsed == []


def test_the_library_reader_writes_nothing(tmp_path, tmp_path_factory, monkeypatch):
    """``read_panel_csv`` only parses: with a private, writable and empty
    ``XDG_CACHE_HOME``, reading a plain file and one whose extra column gives
    a warning, each by name and as a file object, leaves it empty."""
    cache = tmp_path_factory.mktemp("private-cache")
    cache.chmod(0o700)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    plain = _panel_file(tmp_path)
    extra = _write(tmp_path / "extra.csv", "g,t,y,d1,note\n1,1,0,0,a\n1,2,0,1,a\n"
                   "2,1,0,0,a\n2,2,0,0,a\n")
    for path, warns in ((plain, False), (extra, True)):
        for source in (path, io.BytesIO(Path(path).read_bytes())):
            with pytest.warns(UserWarning) if warns else contextlib.nullcontext():
                m.read_panel_csv(source)
    assert list(cache.iterdir()) == []


def test_each_command_hashes_its_input_once(tmp_path, panel_cache):
    """A command's input bytes go through sha256 once, on a miss as on a hit:
    one digest is the report's ``input_sha256`` and the cache key's part."""
    path = _panel_file(tmp_path)
    data = Path(path).read_bytes()
    real, hashed = hashlib.sha256, []

    class Counted:
        """A sha256 that records the bytes it was fed when its digest is taken."""
        def __init__(self, part=b"", **kwargs):
            self._digest, self._fed = real(**kwargs), []
            self.update(part)

        def update(self, part):
            self._fed.append(memoryview(part).cast("B").tobytes())
            self._digest.update(part)

        def hexdigest(self):
            hashed.append(b"".join(self._fed))
            return self._digest.hexdigest()

    counts = []
    with mock.patch.object(hashlib, "sha256", Counted):
        for _ in range(2):  # a miss, then a hit
            hashed.clear()
            code, out, _ = _run("didm", "--input", path, "--target", "d1")
            counts.append(hashed.count(data))
    assert code == 0 and json.loads(out)["input_sha256"] == real(data).hexdigest()
    assert counts == [1, 1] and len(_entries(panel_cache)) == 1
