import contextlib
import hashlib
import io
import itertools
import json
import re
import shutil
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from matshare import cli, protocol
from matshare.algebra import BinaryVector, Matrix, Vector
from matshare.cli import (
    EXIT_FORGERY,
    EXIT_GUARDRAIL,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_USAGE,
    bulletin_from_json,
    main,
    matrix_digest,
    matrix_from_json,
    transcript_from_json,
    transcript_to_json,
    canonical_json,
)
from matshare.dealer import Bulletin
from matshare.transport import DEALER, PUBLIC, SECURE, IndexPointer, fresh_network, participant_name


def deal(tmp_path, r=4, k=6, n=3, seed=7, sub="ws"):
    out = tmp_path / sub
    code = main(["deal", "--r", str(r), "--k", str(k), "--n", str(n), "--seed", str(seed), "--out", str(out)])
    assert code == EXIT_OK
    return out


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# deal
# ---------------------------------------------------------------------------

def test_deal_writes_workspace(tmp_path):
    ws = deal(tmp_path, r=8, k=10, n=4)
    bulletin = read_json(ws / "bulletin.json")
    assert bulletin["version"] == 1
    assert (bulletin["r"], bulletin["k"], bulletin["n"]) == (8, 10, 4)
    assert len(bulletin["matrices"]) == 10
    assert len(bulletin["u_prime"]) == 4
    share_files = sorted(p.name for p in (ws / "shares").iterdir())
    assert share_files == ["P1.json", "P2.json", "P3.json", "P4.json"]
    share = read_json(ws / "shares" / "P2.json")
    assert set(share) == {"participant", "matrix_index", "ring", "u"}
    assert share["ring"] == [1, 2, 3, 4]
    instance = read_json(ws / "instance.json")
    assert set(instance) == {"sigma", "secret"}


def test_deal_entries_are_decimal_strings(tmp_path):
    ws = deal(tmp_path)
    bulletin = read_json(ws / "bulletin.json")
    for row in bulletin["matrices"][0]:
        for cell in row:
            assert isinstance(cell, str)
            int(cell)


def test_deal_rejects_r_not_above_n(tmp_path, capsys):
    code = main(["deal", "--r", "4", "--k", "6", "--n", "4", "--out", str(tmp_path / "bad")])
    assert code == EXIT_USAGE
    assert "r > n" in capsys.readouterr().err


def test_deal_rejects_n_above_k(tmp_path, capsys):
    code = main(["deal", "--r", "9", "--k", "3", "--n", "4", "--out", str(tmp_path / "bad")])
    assert code == EXIT_USAGE
    assert "n <= k" in capsys.readouterr().err


def test_deal_deterministic(tmp_path):
    ws1 = deal(tmp_path, sub="a", seed=11)
    ws2 = deal(tmp_path, sub="b", seed=11)
    for name in ["bulletin.json", "instance.json", "shares/P1.json", "shares/P3.json"]:
        assert (ws1 / name).read_bytes() == (ws2 / name).read_bytes()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_honest_recovers_secret(tmp_path, capsys):
    ws = deal(tmp_path)
    code = main(["run", "--workspace", str(ws), "--start", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "recovered secret sha256" in out
    # the starter's secure self-record equals the dealt secret
    transcript = read_json(ws / "transcript.json")
    secure_matrices = [
        ev for ev in transcript["events"] if ev["kind"] == "matrix" and ev["visibility"] == "secure"
    ]
    recovered = matrix_from_json(secure_matrices[-1]["payload"], 4)
    secret = matrix_from_json(read_json(ws / "instance.json")["secret"], 4)
    assert recovered == secret


def test_run_audit_vector_does_not_replay_the_blinding_draws(tmp_path, capsys, monkeypatch):
    # X's entries are getrandbits(9) draws below 256, so at t = 9 an audit
    # vector drawn from a fresh Random(seed) would hold X's first entries,
    # in row-major order, wherever it is below 256: an observer who learns
    # X from the first reveal would know the vector.  The audit draws from
    # the run's generator after the round instead.
    ws = deal(tmp_path, r=8, k=10, n=4)
    blinds, vectors = [], []
    sample, audit = protocol.sample_invertible_matrix, cli.freivalds_audit

    def recording_sample(r, bound, rng):
        blinds.append(sample(r, bound, rng))
        return blinds[-1]

    def recording_audit(transcript, bulletin, t, seed):
        rng = seed if isinstance(seed, Random) else Random(seed)
        twin = Random()
        twin.setstate(rng.getstate())
        vectors.append([twin.getrandbits(t) for _ in range(bulletin.r)])
        return audit(transcript, bulletin, t, rng)

    monkeypatch.setattr(protocol, "sample_invertible_matrix", recording_sample)
    monkeypatch.setattr(cli, "freivalds_audit", recording_audit)
    replays = 0
    for seed in range(20):
        assert main(["run", "--workspace", str(ws), "--t", "9", "--seed", str(seed)]) == EXIT_OK
        assert "freivalds audit: ok (t=9)" in capsys.readouterr().out
        low = [x for x in vectors[-1] if x < 256]
        replays += bool(low) and low == [x for row in blinds[-1].rows for x in row][: len(low)]
    assert len(vectors) == len(blinds) == 20
    assert replays == 0


def test_main_carries_no_option_between_calls(tmp_path, capsys):
    # one process, one parser: a forged run and a refused attack must
    # leave nothing behind for the honest run that follows
    ws = deal(tmp_path)
    assert main(["run", "--workspace", str(ws), "--cheat", "2:5", "--seed", "1"]) == EXIT_FORGERY
    assert main(["attack", "--workspace", str(ws), "--limit", "0"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run", "--workspace", str(ws)]) == EXIT_OK
    secret = matrix_from_json(read_json(ws / "instance.json")["secret"], 4)
    assert f"recovered secret sha256 {matrix_digest(secret)}" in capsys.readouterr().out


def test_run_does_not_need_instance_file(tmp_path):
    ws = deal(tmp_path)
    (ws / "instance.json").unlink()
    code = main(["run", "--workspace", str(ws), "--start", "1", "--seed", "5"])
    assert code == EXIT_OK


def test_run_cheater_detected(tmp_path, capsys):
    ws = deal(tmp_path)
    code = main(["run", "--workspace", str(ws), "--start", "2", "--cheat", "3:99", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_FORGERY
    assert "FORGERY DETECTED at verification" in out
    transcript = read_json(ws / "transcript.json")
    reconstruction_events = [
        ev
        for ev in transcript["events"]
        if ev["kind"] == "matrix"
    ]
    assert reconstruction_events == []


def test_run_start_out_of_range(tmp_path, capsys):
    ws = deal(tmp_path)
    code = main(["run", "--workspace", str(ws), "--start", "9"])
    assert code == EXIT_USAGE
    assert "start" in capsys.readouterr().err


def test_run_bad_cheat_spec(tmp_path, capsys):
    ws = deal(tmp_path)
    code = main(["run", "--workspace", str(ws), "--cheat", "nonsense"])
    assert code == EXIT_USAGE


def test_run_cheater_out_of_range(tmp_path, capsys):
    ws = deal(tmp_path)
    for position in ("0", "4"):
        code = main(["run", "--workspace", str(ws), "--cheat", f"{position}:5"])
        assert code == EXIT_USAGE
        assert "cheater position must be in [1, 3]" in capsys.readouterr().err
    assert not (ws / "transcript.json").exists()


def test_run_missing_workspace(tmp_path, capsys):
    code = main(["run", "--workspace", str(tmp_path / "nowhere")])
    assert code == EXIT_USAGE


def test_run_deterministic_transcripts(tmp_path):
    ws1 = deal(tmp_path, sub="a", seed=21)
    ws2 = deal(tmp_path, sub="b", seed=21)
    for ws in (ws1, ws2):
        assert main(["run", "--workspace", str(ws), "--start", "1", "--seed", "8"]) == EXIT_OK
    assert (ws1 / "transcript.json").read_bytes() == (ws2 / "transcript.json").read_bytes()


def test_transcript_round_trip_is_byte_identical(tmp_path):
    ws = deal(tmp_path)
    assert main(["run", "--workspace", str(ws), "--start", "3", "--seed", "2"]) == EXIT_OK
    raw = (ws / "transcript.json").read_text()
    bulletin = bulletin_from_json(read_json(ws / "bulletin.json"))
    reparsed = canonical_json(transcript_to_json(transcript_from_json(json.loads(raw), bulletin)))
    assert reparsed == raw


WRITER_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(1 << 300), 1 << 300)
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "é ☃ \U0001d11e"])
)
WRITER_DOCS = st.recursive(
    WRITER_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@example({"": [[], {}, [{"a\"\\": [True, 1, False, 0, -(1 << 300)]}], "\x01é☃", ["7", "-8"]]})
@given(WRITER_DOCS)
def test_canonical_json_writes_what_json_dumps_writes(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2) + "\n"


def _matrices(r):
    entry = st.integers(-(1 << 200), 1 << 200)
    return st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r).map(Matrix)


def _vectors(r):
    return st.lists(st.integers(-(1 << 200), 1 << 200), min_size=r, max_size=r).map(Vector)


def _nested(values):
    """values alone, or in lists and dicts one or two deep."""
    one = st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values, max_size=3)
    two = st.lists(one, max_size=3) | st.dictionaries(st.text(max_size=3), one, max_size=3)
    return values | one | two


def _decimal_form(doc):
    """doc with each Matrix and Vector spelled as lists of decimal strings."""
    if type(doc) is Matrix:
        return [[str(x) for x in row] for row in doc.rows]
    if type(doc) is Vector:
        return [str(x) for x in doc.entries]
    if type(doc) is list:
        return [_decimal_form(x) for x in doc]
    if type(doc) is dict:
        return {key: _decimal_form(value) for key, value in doc.items()}
    return doc


MATRIX_DOCS = st.integers(1, 6).flatmap(lambda r: _nested(_matrices(r) | _vectors(r) | st.integers(-3, 3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@example(Matrix([[1]]))
@example({"m": [Matrix([[-(1 << 200), 0], [7, 1 << 200]]), Vector([5, -5])], "": []})
@given(MATRIX_DOCS)
def test_canonical_json_writes_matrices_as_json_dumps_writes_their_decimals(doc):
    assert canonical_json(doc) == json.dumps(_decimal_form(doc), indent=2) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(_matrices))
def test_matrix_file_round_trip(m):
    assert matrix_from_json(json.loads(canonical_json(m)), m.dim) == m


@pytest.mark.parametrize("doc", [1.5, [["1"], [0.0]], {"a": b"1"}, BinaryVector([1, 0]), (1, 2)])
def test_canonical_json_refuses_other_types(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def test_attack_report_contains_dealer_sigma(tmp_path):
    ws = deal(tmp_path)
    assert main(["run", "--workspace", str(ws), "--start", "2", "--seed", "3"]) == EXIT_OK
    assert main(["attack", "--workspace", str(ws)]) == EXIT_OK
    report = read_json(ws / "attack_report.json")
    sigma = read_json(ws / "instance.json")["sigma"]
    assert sigma in report["solutions"]
    assert report["space"] == {"multiset": "56", "ordered_distinct": "120", "ordered_rep": "216"}
    # ratio analysis identifies n-1 = 2 shadows, matching sigma positions
    walk_rest = [(2 - 1 + j) % 3 + 1 for j in range(1, 3)]
    assert [h["position"] for h in report["ratio_hits"]] == walk_rest
    for hit in report["ratio_hits"]:
        assert hit["matrix_index"] == sigma[hit["position"] - 1]


def test_attack_reports_a_gap_as_a_null_matrix_index(tmp_path, capsys):
    # the reveals no longer fit the bulletin once P2's matrix changes, so
    # the quotient at position 2 names no public matrix: a gap, written
    # as null and left out of the printed count
    ws = deal(tmp_path, r=4, k=5, n=3, seed=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    sigma = read_json(ws / "instance.json")["sigma"]
    doc = read_json(ws / "bulletin.json")
    doc["matrices"][sigma[1]][0][0] = str(int(doc["matrices"][sigma[1]][0][0]) + 1)
    (ws / "bulletin.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_OK
    assert "ratio analysis recovered 1 shadow(s)" in capsys.readouterr().out
    report = read_json(ws / "attack_report.json")
    assert report["ratio_hits"] == [
        {"position": 2, "matrix_index": None},
        {"position": 3, "matrix_index": sigma[2]},
    ]
    assert '"matrix_index": null' in (ws / "attack_report.json").read_text()


def test_attack_guardrail_reports_multiset_count(tmp_path, capsys):
    ws = deal(tmp_path, r=12, k=20, n=10, sub="big")
    code = main(["attack", "--workspace", str(ws)])
    err = capsys.readouterr().err
    assert code == EXIT_GUARDRAIL
    assert "20030010" in err


def test_attack_count_only(tmp_path):
    ws = deal(tmp_path, r=12, k=20, n=10, sub="big")
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_OK
    report = read_json(ws / "attack_report.json")
    assert report["solutions"] == []
    assert report["space"]["multiset"] == "20030010"
    assert report["space"]["ordered_distinct"] == str(
        __import__("math").perm(20, 10)
    )
    assert report["space"]["ordered_rep"] == str(20**10)


def test_count_only_attack_needs_no_instance_file(tmp_path):
    # an eavesdropper holds the bulletin and a transcript but no dealer
    # instance: the count-only attack never reads the secret, so it runs
    # there and names the same shadows as in the dealer's workspace
    ws = deal(tmp_path, r=6, k=6, n=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_OK
    dealt = read_json(ws / "attack_report.json")
    (ws / "instance.json").unlink()
    (ws / "attack_report.json").unlink()
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_OK
    report = read_json(ws / "attack_report.json")
    assert report["ratio_hits"] == dealt["ratio_hits"]
    assert len(report["ratio_hits"]) == 2


@pytest.mark.parametrize("extra", [["--count-only"], []], ids=["count-only", "search"])
def test_attack_reads_no_share(tmp_path, extra):
    # an eavesdropper's copy of a workspace has no shares/: the attack
    # reads only the bulletin, the transcript and, to search, the
    # instance, so it writes the same report bytes as on the full workspace
    ws = deal(tmp_path, r=6, k=6, n=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    copy = tmp_path / "copy"
    shutil.copytree(ws, copy)
    shutil.rmtree(copy / "shares")
    if extra:
        (copy / "instance.json").unlink()
    reports = []
    for workspace in (ws, copy):
        assert main(["attack", "--workspace", str(workspace), *extra]) == EXIT_OK
        reports.append((workspace / "attack_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert len(report["ratio_hits"]) == 2 and (extra or report["solutions"])


def test_attack_limit(tmp_path):
    ws = deal(tmp_path)
    assert main(["attack", "--workspace", str(ws), "--mode", "ordered-rep", "--limit", "1"]) == EXIT_OK
    report = read_json(ws / "attack_report.json")
    assert len(report["solutions"]) == 1


@pytest.mark.parametrize(
    "limit, extra", [("0", []), ("-3", []), ("0", ["--count-only"])], ids=["0", "-3", "0-count-only"]
)
def test_attack_limit_below_one_is_usage_error(tmp_path, capsys, limit, extra):
    ws = deal(tmp_path)
    capsys.readouterr()
    assert main(["attack", "--workspace", str(ws), "--limit", limit, *extra]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "limit" in err and err.count("\n") == 1
    assert not (ws / "attack_report.json").exists()


def test_deal_out_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for out in (taken, taken / "sub"):
        code = main(["deal", "--r", "4", "--k", "6", "--n", "3", "--seed", "7", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
    assert taken.read_text() == "not a directory"


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MATSHARE_SEED", "13")
    ws_env = deal_no_seed(tmp_path, "env")
    monkeypatch.delenv("MATSHARE_SEED")
    ws_flag = tmp_path / "flag"
    assert main(["deal", "--r", "4", "--k", "6", "--n", "3", "--seed", "13", "--out", str(ws_flag)]) == EXIT_OK
    assert (ws_env / "bulletin.json").read_bytes() == (ws_flag / "bulletin.json").read_bytes()


def deal_no_seed(tmp_path, sub):
    out = tmp_path / sub
    assert main(["deal", "--r", "4", "--k", "6", "--n", "3", "--out", str(out)]) == EXIT_OK
    return out


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deal", "--bogus-flag"])
    assert exc.value.code == EXIT_USAGE


def test_deal_requires_k_and_n_without_sampling(tmp_path, capsys):
    code = main(["deal", "--r", "6", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "--k and --n" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# k/n sampling mode
# ---------------------------------------------------------------------------

def test_sample_kn_mode(tmp_path, capsys):
    ws = tmp_path / "sampled"
    code = main([
        "deal", "--r", "8", "--sample-kn", "--k-range", "4:10", "--n-range", "2:6",
        "--seed", "31", "--out", str(ws),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "sampled k=" in out
    bulletin = read_json(ws / "bulletin.json")
    assert 4 <= bulletin["k"] <= 10
    assert 2 <= bulletin["n"] <= 6
    assert bulletin["n"] <= bulletin["k"]
    assert bulletin["n"] < 8
    # sampled workspaces run end to end
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK


def test_sample_kn_deterministic(tmp_path):
    docs = []
    for sub in ("s1", "s2"):
        ws = tmp_path / sub
        assert main(["deal", "--r", "8", "--sample-kn", "--seed", "5", "--out", str(ws)]) == EXIT_OK
        docs.append((ws / "bulletin.json").read_bytes())
    assert docs[0] == docs[1]


def test_sample_kn_conflicts_with_explicit_k(tmp_path, capsys):
    code = main(["deal", "--r", "8", "--sample-kn", "--k", "6", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE


def test_sample_kn_bad_range(tmp_path, capsys):
    code = main(["deal", "--r", "8", "--sample-kn", "--k-range", "9", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# integrity failure path
# ---------------------------------------------------------------------------

def test_run_singular_shadow_workspace_is_integrity_failure(tmp_path, capsys):
    # hand-crafted workspace whose selected shadow is singular: verification
    # still passes (no inversion there) but reconstruction cannot invert the
    # position-n reveal
    from matshare.cli import EXIT_INTEGRITY

    ws = tmp_path / "crafted"
    (ws / "shares").mkdir(parents=True)
    singular = [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]
    eye = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    # u_prime[i-1] must equal the ring chain from i applied to U_i
    bulletin = {
        "version": 1,
        "r": 3,
        "k": 2,
        "n": 2,
        "matrices": [singular, eye],
        "u_prime": [["2", "2", "0"], ["1", "1", "1"]],
    }
    share1 = {"participant": 1, "matrix_index": 0, "ring": [1, 2], "u": [1, 1, 0]}
    share2 = {"participant": 2, "matrix_index": 1, "ring": [1, 2], "u": [0, 1, 1]}
    (ws / "bulletin.json").write_text(json.dumps(bulletin))
    (ws / "shares" / "P1.json").write_text(json.dumps(share1))
    (ws / "shares" / "P2.json").write_text(json.dumps(share2))

    code = main(["run", "--workspace", str(ws), "--start", "1", "--seed", "2"])
    assert code == EXIT_INTEGRITY
    assert "integrity failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed workspaces
# ---------------------------------------------------------------------------

def _edit_json(path, edit):
    doc = read_json(path)
    edit(doc)
    path.write_text(json.dumps(doc))


MALFORMED = {
    "matrix index out of range": ("shares/P2.json", lambda d: d.update(matrix_index=99), "run"),
    "duplicate participant": ("shares/P2.json", lambda d: d.update(participant=1), "run"),
    "non-integer r": ("bulletin.json", lambda d: d.update(r="x"), "run"),
    "missing u_prime": ("bulletin.json", lambda d: d.pop("u_prime"), "run"),
    "check vector of wrong dimension": ("shares/P2.json", lambda d: d.update(u=[1, 1, 0]), "run"),
    "check vector with a float bit": ("shares/P2.json", lambda d: d.update(u=[1.0, 1, 0, 1, 0, 1]), "run"),
    "empty instance": ("instance.json", lambda d: d.clear(), "search"),
    "secret of wrong dimension": ("instance.json", lambda d: d.update(secret=d["secret"][:5]), "search"),
    "matrix entry as a JSON number": ("bulletin.json", lambda d: d["matrices"][0][0].__setitem__(0, 7), "run"),
    "float in u_prime": ("bulletin.json", lambda d: d["u_prime"][1].__setitem__(2, 1.5), "run"),
    "boolean r": ("bulletin.json", lambda d: d.update(r=True), "run"),
    "share nested 200000 deep": ("shares/P2.json", None, "run"),
}


def _command(command, ws):
    """The arguments of a run, a count-only attack, or an attack that searches and so reads instance.json."""
    return {
        "run": ["run", "--workspace", str(ws)],
        "attack": ["attack", "--workspace", str(ws), "--count-only"],
        "search": ["attack", "--workspace", str(ws)],
    }[command]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_workspace_is_usage_error(tmp_path, capsys, name):
    target, edit, command = MALFORMED[name]
    ws = deal(tmp_path, r=6, k=6, n=3)
    capsys.readouterr()
    if edit is None:
        # nesting deeper than the JSON parser's recursion limit
        (ws / target).write_text("[" * 200_000)
    else:
        _edit_json(ws / target, edit)
    assert main(_command(command, ws)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert target in err


def _rows_shifted(rows):
    # row 0 takes row 1's first entry: lengths r + 1 and r - 1, r^2 in all,
    # and the same entries in the same order
    rows[0].append(rows[1].pop(0))


def _r_zero(doc):
    # 0 x 0 matrices and empty vectors fit r = 0 in every shape check, so
    # only r >= 1 refuses the matrices, before any vector is read
    doc.update(r=0, matrices=[[] for _ in doc["matrices"]], u_prime=[[] for _ in doc["u_prime"]])


MALFORMED_MATRICES = {
    "ragged rows": ("bulletin.json", lambda d: _rows_shifted(d["matrices"][0]), "run"),
    "ragged secret rows": ("instance.json", lambda d: _rows_shifted(d["secret"]), "search"),
    "ragged reveal rows": (
        "transcript.json",
        lambda d: _rows_shifted(next(e["payload"] for e in d["events"] if e["kind"] == "matrix")),
        "attack",
    ),
    "r of 0": ("bulletin.json", _r_zero, "run"),
    "int entry": ("bulletin.json", lambda d: d["matrices"][1][2].__setitem__(3, 7), "run"),
    "bool entry": ("bulletin.json", lambda d: d["matrices"][1][2].__setitem__(3, True), "run"),
    "null entry": ("bulletin.json", lambda d: d["matrices"][1][2].__setitem__(3, None), "run"),
    "list entry": ("bulletin.json", lambda d: d["matrices"][1][2].__setitem__(3, ["7"]), "run"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MATRICES))
def test_malformed_matrix_is_usage_error_naming_the_file(tmp_path, capsys, name):
    target, edit, command = MALFORMED_MATRICES[name]
    ws = deal(tmp_path, r=6, k=6, n=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    _edit_json(ws / target, edit)
    assert main(_command(command, ws)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert target in err and "a matrix must be" in err


def _first_event_without_sender(doc):
    first = {key: value for key, value in doc["events"][0].items() if key != "from"}
    return {"events": [first] + doc["events"][1:]}


def _first_matrix_cut_to_5x5(doc):
    event = next(event for event in doc["events"] if event["kind"] == "matrix")
    event["payload"] = [row[:5] for row in event["payload"][:5]]
    return doc


MALFORMED_TRANSCRIPTS = {
    "no events": lambda d: {},
    "event without sender": _first_event_without_sender,
    "top level is a list": lambda d: [],
    "unknown payload kind": lambda d: {"events": [{**d["events"][0], "kind": "scalar"}] + d["events"][1:]},
    "matrix payload of wrong dimension": _first_matrix_cut_to_5x5,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRANSCRIPTS))
def test_malformed_transcript_is_usage_error(tmp_path, capsys, name):
    ws = deal(tmp_path, r=6, k=6, n=3)
    assert main(["run", "--workspace", str(ws)]) == EXIT_OK
    capsys.readouterr()
    path = ws / "transcript.json"
    doc = read_json(path)
    path.write_text(json.dumps(MALFORMED_TRANSCRIPTS[name](doc)))
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _every_public_uppercased(doc):
    for event in doc["events"]:
        if event["visibility"] == "public":
            event["visibility"] = "PUBLIC"
    return doc


def _first_broadcast_made_secure(doc):
    next(event for event in doc["events"] if event["to"] == "Broadcast")["visibility"] = "secure"
    return doc


@pytest.mark.parametrize("edit", [_every_public_uppercased, _first_broadcast_made_secure])
def test_transcript_visibility_outside_the_channel_tags_is_usage_error(tmp_path, capsys, edit):
    # the eavesdropper's view keeps only "public" events: a run whose
    # reveals were tagged otherwise would be attacked as if it showed nothing
    ws = deal(tmp_path, r=6, k=6, n=3)
    assert main(["run", "--workspace", str(ws)]) == EXIT_OK
    capsys.readouterr()
    path = ws / "transcript.json"
    events = read_json(path)["events"]
    edited = edit(read_json(path))
    first = next(i for i, (old, new) in enumerate(zip(events, edited["events"])) if old != new)
    path.write_text(json.dumps(edited))
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"event {first}: " in err and repr(edited["events"][first]["visibility"]) in err


@pytest.mark.parametrize(
    "field, name",
    [("from", "P9"), ("from", "P+3"), ("from", "Mallory"), ("from", "Broadcast"), ("from", "Dealer"), ("to", "P4")],
)
def test_transcript_names_outside_the_ring_are_usage_errors(tmp_path, capsys, field, name):
    # ratio analysis reads a reveal's position from its sender's name, so a
    # name beyond n, a non-canonical spelling, a stranger or the dealer
    # (who broadcasts nothing) must be refused when the transcript is read,
    # with the file and the event named
    ws = deal(tmp_path, r=5, k=6, n=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    path = ws / "transcript.json"
    doc = read_json(path)
    reveals = [i for i, event in enumerate(doc["events"]) if event["kind"] == "matrix"]
    second = reveals[1]
    doc["events"][second][field] = name
    path.write_text(json.dumps(doc))
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(path) in err and f"event {second}: " in err and repr(name) in err
    assert not (ws / "attack_report.json").exists()


def _swap_steps(doc, i, j):
    events = doc["events"]
    events[i]["step"], events[j]["step"] = events[j]["step"], events[i]["step"]


# an edit of the steps, and the first event whose step it makes wrong
STEP_EDITS = {
    "two steps swapped": (lambda d: _swap_steps(d, 1, 2), 1),
    "first step 99": (lambda d: d["events"][0].update(step=99), 0),
    "second step true": (lambda d: d["events"][1].update(step=True), 1),
    "last step repeated": (lambda d: d["events"][-1].update(step=len(d["events"]) - 2), -1),
}


@pytest.mark.parametrize("name", sorted(STEP_EDITS))
def test_transcript_step_other_than_its_place_is_usage_error(tmp_path, capsys, name):
    # re-encoding writes each event's place as its step, so a file whose
    # steps differ would not be the file it decodes to
    edit, first = STEP_EDITS[name]
    ws = deal(tmp_path, r=5, k=6, n=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    path = ws / "transcript.json"
    doc = read_json(path)
    first %= len(doc["events"])
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(path) in err and f"event {first}: step must be {first}" in err
    assert not (ws / "attack_report.json").exists()


# edits of a dealer pointer that the bulletin of k = 6 matrices and n = 3
# participants refuses, as it refuses them in a share file
POINTER_EDITS = {
    "index -1": {"matrix_index": -1},
    "index k": {"matrix_index": 6},
    "ring out of order": {"ring": [2, 1, 3]},
    "ring of n + 1": {"ring": [1, 2, 3, 4]},
}


@pytest.mark.parametrize("name", sorted(POINTER_EDITS))
def test_transcript_pointer_outside_the_bulletin_is_usage_error(tmp_path, capsys, name):
    ws = deal(tmp_path, r=6, k=6, n=3)
    assert main(["run", "--workspace", str(ws), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    path = ws / "transcript.json"
    doc = read_json(path)
    first = next(i for i, event in enumerate(doc["events"]) if event["kind"] == "index_pointer")
    doc["events"][first]["payload"].update(POINTER_EDITS[name])
    path.write_text(json.dumps(doc))
    assert main(["attack", "--workspace", str(ws), "--count-only"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(path) in err and f"event {first}: " in err
    assert not (ws / "attack_report.json").exists()


def _envelopes(n):
    """Strategy: the envelopes of one network of P1..Pn, sent or broadcast in any order, r = 2."""
    members = [DEALER] + [participant_name(j) for j in range(1, n + 1)]
    entry = st.integers(-(1 << 70), 1 << 70)
    payload = st.one_of(
        st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2).map(Matrix),
        st.lists(entry, min_size=2, max_size=2).map(Vector),
        st.lists(st.integers(0, 1), min_size=2, max_size=2).map(BinaryVector),
        st.booleans(),
        st.builds(IndexPointer, st.integers(0, 40), st.just(range(1, n + 1))),
    )
    send = st.tuples(st.sampled_from(members), st.sampled_from(members), st.sampled_from([PUBLIC, SECURE]), payload)
    broadcast = st.tuples(st.sampled_from(members), payload)
    return st.lists(send | broadcast, max_size=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _envelopes(n))))
def test_every_recorded_transcript_decodes_to_itself(case):
    n, messages = case
    net = fresh_network(n)
    for message in messages:
        if len(message) == 4:
            net.send(*message)
        elif message[0] == DEALER:
            # the dealer broadcasts nothing: the rule refuses it and records nothing
            with pytest.raises(ValueError, match="must come from a participant"):
                net.broadcast(*message)
        else:
            net.broadcast(*message)
    text = canonical_json(transcript_to_json(net.transcript))
    decoded = transcript_from_json(json.loads(text), Bulletin(r=2, k=41, n=n, matrices=(), u_prime=()))
    assert decoded.envelopes == net.transcript.envelopes
    assert canonical_json(transcript_to_json(decoded)) == text


def _json_paths(doc, prefix=()):
    """Every place in a JSON document, the root included, as a key path."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4)
    | st.integers(-(10**40), 10**40).map(str),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
DOCUMENTED_EXITS = {EXIT_OK, EXIT_FORGERY, EXIT_INTEGRITY, EXIT_GUARDRAIL, EXIT_USAGE}


def test_mutated_workspace_exits_with_a_documented_code(tmp_path):
    pristine = deal(tmp_path, r=5, k=6, n=3, sub="pristine")
    assert main(["run", "--workspace", str(pristine), "--seed", "1"]) == EXIT_OK
    files = ["bulletin.json", "shares/P1.json", "shares/P2.json", "shares/P3.json", "transcript.json"]
    docs = {name: read_json(pristine / name) for name in files}
    examples = itertools.count()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(files))
        doc = json.loads(json.dumps(docs[name]))
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        ws = tmp_path / f"mutant{next(examples)}"
        shutil.copytree(pristine, ws)
        (ws / name).write_text(json.dumps(_replace(doc, path, data.draw(JSON_VALUES))))
        # attack first: run rewrites the transcript
        for argv in (["attack", "--count-only"], ["run", "--seed", "2"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], "--workspace", str(ws)] + argv[1:])
            assert code in DOCUMENTED_EXITS, (name, path, argv)
        shutil.rmtree(ws)

    check()


# ---------------------------------------------------------------------------
# golden bytes: artifacts and stdout pinned across commits
# ---------------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
GOLDEN_INSTANCES = [(4, 6, 3, 7), (8, 10, 4, 11), (20, 16, 8, 5)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay_golden(root, r, k, n, seed):
    """Run the CLI end to end on one instance; digest every step's output.

    Each step records its exit code, the sha256 of its stdout (workspace
    path and search timing masked) and of every file it wrote or changed.
    """
    ws = root / f"r{r}-k{k}-n{n}-s{seed}"
    w = str(ws)
    steps = [("deal", ["deal", "--r", str(r), "--k", str(k), "--n", str(n), "--seed", str(seed), "--out", w])]
    steps.append(("run --cheat", ["run", "--workspace", w, "--cheat", f"{n}:{seed + 1}", "--seed", "3"]))
    steps += [(f"run --start {s}", ["run", "--workspace", w, "--start", str(s), "--seed", str(s)]) for s in range(1, n + 1)]
    steps.append(("attack --count-only", ["attack", "--workspace", w, "--count-only"]))
    steps.append(("attack", ["attack", "--workspace", w]))

    def snapshot():
        if not ws.exists():
            return {}
        return {p.relative_to(ws).as_posix(): _sha(p.read_bytes()) for p in ws.rglob("*") if p.is_file()}

    digests = {}
    for name, argv in steps:
        before = snapshot()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        stdout = re.sub(r" in [0-9.]+s,", " in Xs,", out.getvalue().replace(w, "WS"))
        record = {"exit": code, "stdout": _sha(stdout.encode("utf-8"))}
        record.update({path: sha for path, sha in snapshot().items() if before.get(path) != sha})
        digests[name] = record
    return digests


@pytest.mark.parametrize("r,k,n,seed", GOLDEN_INSTANCES)
def test_cli_golden_bytes(tmp_path, r, k, n, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[f"r{r}-k{k}-n{n}-s{seed}"]
    assert replay_golden(tmp_path, r, k, n, seed) == golden
