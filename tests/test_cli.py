import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

import pytest

from fiverank.classgroup import DEFAULT_DISC_BOUND, RADICAND_TRIAL_BOUND
from fiverank.cli import RunConfig, load_config, main, paper_check_records
from fiverank.sieve import admissible_z


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(workers=0).validate()
    with pytest.raises(ValueError):
        RunConfig(trial_bound=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(sieve_sign="sideways").validate()


def test_load_config_file(tmp_path, monkeypatch):
    path = tmp_path / "fiverank.conf"
    path.write_text("# comment\nsieve_count = 3\nsieve_sign = neg\nworkers=2\n")
    cfg = load_config(str(path))
    assert cfg.sieve_count == 3 and cfg.sieve_sign == "neg" and cfg.workers == 2
    monkeypatch.setenv("FIVERANK_CONFIG", str(path))
    assert load_config(None).sieve_count == 3
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_config_trial_bound_reaches_oracle_scan(tmp_path, monkeypatch, capsys):
    # the trial_bound key is passed to the oracle scan as written, not
    # clamped to the default
    from fiverank import cli

    seen = {}

    def fake_scan(count, trial_bound, disc_bound):
        seen.update(count=count, trial_bound=trial_bound, disc_bound=disc_bound)
        return iter(())

    monkeypatch.setattr(cli, "oracle_scan", fake_scan)
    path = tmp_path / "fiverank.conf"
    path.write_text("trial_bound = 2000000\n")
    assert main(["--config", str(path), "oracle", "--count", "1"]) == 0
    assert seen == {"count": 1, "trial_bound": 2000000, "disc_bound": 10**7}
    # the config defaults are the oracle's own
    assert (RunConfig().trial_bound, RunConfig().disc_bound) == (
        RADICAND_TRIAL_BOUND, DEFAULT_DISC_BOUND) == (10**6, 10**7)


def test_flags_override_their_config_keys(tmp_path, monkeypatch, capsys):
    # each flag stores under its config key: --emit is -o on the streaming
    # commands and wins over it, and a flag wins over the config file
    from fiverank import cli

    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    sieve = ["sieve", "--count", "3", "--start", "100"]
    assert main(["-o", str(a), *sieve]) == 0
    assert main([*sieve, "--emit", str(b)]) == 0
    assert capsys.readouterr().out == ""
    assert a.read_bytes() == b.read_bytes() and a.read_bytes().count(b"\n") == 3
    b.unlink()
    assert main(["-o", str(c), *sieve, "--emit", str(b)]) == 0
    assert b.read_bytes() == a.read_bytes() and not c.exists()

    conf = tmp_path / "fiverank.conf"
    conf.write_text("disc_bound = 5\nsieve_sign = pos\nsieve_count = 4\n")
    code, records = run_cli(["--config", str(conf), "sieve", "--sign", "neg"],
                            capsys)
    assert code == 0 and len(records) == 4
    assert all(int(r["z"]) < 0 for r in records)
    seen = {}

    def fake_scan(count, trial_bound, disc_bound):
        seen.update(count=count, disc_bound=disc_bound)
        return iter(())

    monkeypatch.setattr(cli, "oracle_scan", fake_scan)
    assert main(["--config", str(conf), "oracle", "--count", "2"]) == 0
    assert seen == {"count": 2, "disc_bound": 5}
    assert main(["--config", str(conf), "oracle", "--bound", "123"]) == 0
    assert seen == {"count": 20, "disc_bound": 123}

    # derive --emit names the specialization file, not the record stream
    spec = tmp_path / "specialization.json"
    assert main(["derive"]) == 0
    plain = capsys.readouterr().out
    assert main(["-o", str(c), "derive", "--emit", str(spec)]) == 0
    assert capsys.readouterr().out == ""
    assert c.read_text() == plain
    assert json.loads(spec.read_text())["record"] == "specialization"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])            # needs --z or --batch
    assert exc.value.code == 2


def _usage_error(argv, capsys):
    """(exit code, stdout, last stderr line) of a command argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err.splitlines()[-1]


def test_verify_z_and_batch_exclude_each_other(capsys):
    code, out, err = _usage_error(["verify", "--z", "5", "--batch", "3"], capsys)
    assert code == 2 and out == ""
    assert "not allowed with argument --z" in err


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "out.jsonl"
    code, out, err = _usage_error(["-o", str(path), "sieve", "--count", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("fiverank: error:") and str(path) in err


def test_unwritable_derive_emit_path_is_a_usage_error(tmp_path, capsys):
    # the specialization file is opened before the first identity record
    path = tmp_path / "missing" / "specialization.json"
    code, out, err = _usage_error(["derive", "--emit", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("fiverank: error:") and str(path) in err


def test_cmd_derive(capsys, tmp_path):
    emit = tmp_path / "specialization.json"
    code, records = run_cli(["derive", "--emit", str(emit)], capsys)
    assert code == 0
    assert records[-1]["record"] == "summary" and records[-1]["pass"]
    blob = json.loads(emit.read_text())
    assert blob["record"] == "specialization"
    assert blob["u"] == ["19/21", "-29/21", "-11/21"]
    assert blob["scale"] == "4084101/2"
    assert [sorted(int(p) for p in ps) for ps in blob["five_component_primes"]] \
        == [[11, 29, 419], [11, 19, 709], [19, 29, 151]]


def test_cmd_sieve(capsys):
    code, records = run_cli(["sieve", "--count", "3", "--sign", "pos"], capsys)
    assert code == 0
    assert len(records) == 3
    assert all(r["record"] == "sieve-report" and r["pass"] for r in records)
    assert all(int(r["z"]) > 0 for r in records)


def test_cmd_verify_single(capsys):
    code, records = run_cli(["verify", "--batch", "2", "--sign", "neg"], capsys)
    assert code == 0
    assert len(records) == 2
    assert all(r["record"] == "field-certificate" for r in records)
    assert all(r["conclusion"] for r in records)
    assert all(r["sign"] == -1 for r in records)


def test_cmd_verify_workers(capsys):
    code, records = run_cli(
        ["--workers", "2", "verify", "--batch", "2", "--sign", "pos"], capsys)
    assert code == 0 and len(records) == 2
    zs = [int(r["z"]) for r in records]
    assert zs == sorted(zs)


def test_cmd_verify_spawned_workers_match_serial_bytes():
    # a worker started by spawn (or forkserver) does not inherit the
    # parent's lifted int-to-str limit, and builds records with ~12,000-digit
    # radicands at |z| ~ 1e1000
    args = ["verify", "--batch", "2", "--start", str(10 ** 1000)]
    spawned = subprocess.run(
        [sys.executable, "-c",
         "import multiprocessing, sys\n"
         "multiprocessing.set_start_method('spawn')\n"
         "from fiverank.cli import main\n"
         "sys.exit(main(sys.argv[1:]))",
         "--workers", "2", *args],
        capture_output=True)
    serial = subprocess.run([sys.executable, "-m", "fiverank.cli", *args],
                            capture_output=True)
    assert spawned.stderr == b"" and spawned.returncode == serial.returncode
    assert spawned.stdout == serial.stdout and len(serial.stdout) > 2 * 4300


def test_cmd_verify_streams_certificates(monkeypatch):
    # each certificate is written before the next z is verified, with and
    # without --workers (an in-process pool keeps the order observable)
    from fiverank import cli

    class InlinePool:
        def __init__(self, max_workers, initializer):
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    events = []
    real_verify, real_emit = cli.verify_instance, cli._emit

    def verify(z):
        events.append(("verify", z))
        return real_verify(z)

    def emit(fh, record):
        events.append(("emit", int(record["z"])))
        real_emit(fh, record)

    monkeypatch.setattr(cli, "verify_instance", verify)
    monkeypatch.setattr(cli, "_emit", emit)
    # cli imports the pool class only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    zs = list(admissible_z(count=3, sign="neg"))
    for workers in ([], ["--workers", "2"]):
        events.clear()
        assert main([*workers, "verify", "--batch", "3", "--sign", "neg"]) == 0
        assert events == [(kind, z) for z in zs for kind in ("verify", "emit")]


def test_cmd_verify_batch_with_failing_candidate(capsys):
    # far enough into the positive stream to hit a 29-cancellation z: the
    # command reports it with conclusion false and exits nonzero
    code, records = run_cli(["verify", "--batch", "8", "--sign", "pos"], capsys)
    assert code == 1
    failed = [r for r in records if not r["conclusion"]]
    assert failed
    assert all("sieve" in f for r in failed for f in r["failures"])


def test_cmd_classgroup(capsys):
    code, records = run_cli(["classgroup", "--disc", "-23"], capsys)
    assert code == 0
    rec = records[0]
    assert rec["class_number"] == "3"
    assert rec["invariant_factors"] == ["3"]
    assert rec["p_ranks"]["3"] == 1


def test_cmd_classgroup_records_pinned(capsys):
    # SHA-256 and exit code of each classgroup record, recorded while
    # group_structure still read the invariant factors off a power table
    # of every reduced form: C5, C2 x C2, C5 x C5, C25 x C5 (h = 250), the
    # non-fundamental -64 and -2832, and the over-budget error record
    golden = {
        "-47": (0, "54689808ccdc57feb29a84c10e11b216049194bd8af35530a736f4db23cdcf84"),
        "-84": (0, "059017b155f7aabaa6253a61714251d44f003b5a7c92296d98919eb0d9b9acf1"),
        "-12451": (0, "6486507e874528dbcad2743323efd37e794a4518a52b6cc663ec15630b59da05"),
        "-50783": (0, "55b6c20f236a166fc0a15d2adac7ff57be328de9b6a731441aa07f108d407f34"),
        "-64": (0, "83fed74c08f7bc0ae4faec487d10545b8f1432ce772cb8bea430b9339e9213ec"),
        "-2832": (0, "cf6846bb578dbe28c0d87ed89307148e866b3f02d86bfd372585a0d415326cde"),
        str(-(10**7 + 7) * 4):
            (1, "cbb2ca13bb7da6fe726dfc42b362f5f23d95f64df0de390e7fb715c26b2eea60"),
    }
    for disc, (expected, digest) in golden.items():
        code = main(["classgroup", "--disc", disc])
        out = capsys.readouterr().out
        assert code == expected, disc
        assert hashlib.sha256(out.encode()).hexdigest() == digest, disc


def test_cmd_count_zero_prints_nothing(capsys):
    for command in ("sieve", "oracle"):
        code, records = run_cli([command, "--count", "0"], capsys)
        assert code == 0 and records == [], command


def test_cmd_verify_huge_z(capsys):
    # the radicand has ~12,000 digits, over CPython's default int->str limit
    limit = sys.get_int_max_str_digits()
    z = 10 ** 1000 + 7
    try:
        code, records = run_cli(["verify", "--z", str(z)], capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(records) == 1
    cert = records[0]
    assert cert["record"] == "field-certificate" and cert["z"] == str(z)
    assert len(cert["radicand"]) > 4300
    assert code == (0 if cert["conclusion"] else 1)


def test_cmd_classgroup_invalid(capsys):
    code, records = run_cli(["classgroup", "--disc", "5"], capsys)
    assert code == 1
    assert records[0]["record"] == "error"


def test_cmd_oracle(capsys):
    code, records = run_cli(["oracle", "--count", "3"], capsys)
    assert code == 0
    decided = [r for r in records if r["status"] != "skip"]
    assert len(decided) == 3
    assert all(r["status"] == "pass" for r in decided)


def test_cmd_paper_check_passes_and_deterministic(capsys):
    code1, records1 = run_cli(["paper-check"], capsys)
    assert code1 == 0
    assert records1[-1]["record"] == "summary" and records1[-1]["pass"]
    code2, records2 = run_cli(["paper-check"], capsys)
    assert records1 == records2


def test_paper_check_records_all_pass():
    records = paper_check_records()
    assert all(r["pass"] for r in records), \
        [r["name"] for r in records if not r["pass"]]


def test_paper_check_fails_a_certificate_without_pattern(monkeypatch, capsys):
    # the per-z records read the certificate verify_instance assembles; one
    # without a splitting pattern fails its pattern records
    import dataclasses

    from fiverank import cli

    certify = cli.verify_instance
    monkeypatch.setattr(cli, "verify_instance", lambda z: dataclasses.replace(
        certify(z), pattern=None, independence=False))
    code, records = run_cli(["paper-check"], capsys)
    assert code == 1 and records[-1] == {
        "record": "summary", "schema": 1, "pass": False, "checks": len(records) - 1}
    failed = [r["name"] for r in records[:-1] if not r["pass"]]
    zs = [r["name"].split("=")[1] for r in records[:-1]
          if r["name"].startswith("independence/")]
    assert len(zs) == 2
    assert failed == [f"{kind}/z={z}" for z in zs
                      for kind in ("splits-in-K", "splitting-pattern", "independence")]


def test_cmd_derive_fault_injection(capsys):
    # corrupting one stored constant must fail the identity suite with the
    # offending identity named and a nonzero exit
    from fiverank import family
    original = family.CONSTANTS["v_mid"]
    family.CONSTANTS["v_mid"] = original + 1
    family.specialize.cache_clear()
    try:
        code, records = run_cli(["derive"], capsys)
        assert code == 1
        summary = records[-1]
        assert summary["record"] == "summary" and not summary["pass"]
        assert "transfer-v" in summary["failed"]
    finally:
        family.CONSTANTS["v_mid"] = original
        family.specialize.cache_clear()
    code, records = run_cli(["derive"], capsys)
    assert code == 0


def test_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "fiverank.cli", "classgroup", "--disc", "-47"],
        capture_output=True, text=True, check=True)
    rec = json.loads(out.stdout.splitlines()[0])
    assert rec["class_number"] == "5"


def test_closed_pipe_ends_quietly():
    # `fiverank sieve --count 100000 | head -c 10`: the reader leaves
    # early, and the command stops with nothing on stderr, not even at the
    # interpreter's final flush of stdout
    proc = subprocess.Popen(
        [sys.executable, "-m", "fiverank.cli", "sieve", "--count", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head == b'{"conditio' and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_write_error_is_one_error_line():
    # a full device, as stdout and as --output: the records fit in the
    # buffer, so the error comes from the final flush
    for where in ([], ["--output", "/dev/full"]):
        with open("/dev/full", "w") as full:
            run = subprocess.run(
                [sys.executable, "-m", "fiverank.cli", *where, "sieve",
                 "--count", "3"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert run.returncode == 1, where
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fiverank: error: "), where


def test_cmd_sieve_byte_identical_across_processes():
    runs = [subprocess.run(
        [sys.executable, "-m", "fiverank.cli", "sieve", "--count", "2",
         "--sign", "both"],
        capture_output=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and runs[0]


def test_cmd_sieve_records_pinned(capsys):
    # SHA-256 of the stdout of the Fraction-arithmetic sieve that preceded
    # the integer evaluation; any drift in sieve records fails here
    golden = {
        (str(10 ** 12), "200"):
            "d1b7a7e63df309f01c5169a68336ff51eedf718a81e2a7a0c36a2262e556964b",
        (str(10 ** 100), "20"):
            "ad4aefa725b96baab07e32b825ea28a619eb3cf8e77e0231fd04c300d220aada",
    }
    for (start, count), digest in golden.items():
        code = main(["sieve", "--start", start, "--count", count, "--sign", "both"])
        out = capsys.readouterr().out
        assert code in (0, 1) and len(out.splitlines()) == int(count)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, start


def test_cmd_sieve_records_pinned_at_1e1000(capsys):
    # SHA-256 of the stdout recorded while every report still evaluated
    # x(z) and the radicand form for its sign; at this size the class
    # route takes the sign from z and evaluates no polynomial
    code = main(["sieve", "--start", str(10 ** 1000), "--count", "50", "--sign", "both"])
    out = capsys.readouterr().out
    assert code in (0, 1) and len(out.splitlines()) == 50
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5f5f035ffdd849072ba537fabceb9e0ee50260b99c7321c2765ed82755e01b1b"


def test_cmd_oracle_records_pinned(capsys):
    # SHA-256 of the stdout recorded while the oracle still took h and
    # the 5-rank from full enumeration (group_structure); the counted h
    # and the 5-Sylow rank must reproduce it, and any drift in oracle
    # records fails here
    code = main(["oracle", "--count", "20", "--include-skips"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3d298d766ebc674714133affaafc534ce8fa3721a7841b97b23a72e1f990390d"


def test_cmd_oracle_grid_pinned(capsys):
    # the whole default grid, skips included: 82 verdicts among 6,786
    # records, hashed while group_structure still gave h and the 5-rank
    code = main(["oracle", "--count", "100000", "--include-skips"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 6786
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "338fa89c75a697d4f39c3afe13cb1d8b58c90ce05dbc18a77714bdbb9ed9fc17"


def test_cmd_oracle_grid_pinned_at_a_small_trial_bound(tmp_path, capsys):
    # trial_bound = 1000 leaves 95 radicands unfactored, so the grid goes
    # through trial_factor's cofactor tests and squarefree_part's perfect
    # powers; hashed before trial division read a prime table
    conf = tmp_path / "fiverank.conf"
    conf.write_text("trial_bound = 1000\n")
    code = main(["--config", str(conf), "oracle", "--count", "100000", "--include-skips"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 6786
    assert out.count('"reason":"radicand not factored within bound"') == 95
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0d3ce011cd41f160377fb113bc3ac73521900baa9fc9033d2be07b0340e9ff1b"


def test_cmd_verify_records_pinned(capsys):
    # SHA-256 and exit codes of the verify stdout; any drift in
    # certificates fails here
    limit = sys.get_int_max_str_digits()
    try:
        for args, digest in (
                (["--batch", "50"],
                 "ee93ccd80e9a132474914a96f2453a8e375f3c28f71ab24cd7024b98c1846e5c"),
                (["--batch", "5", "--start", str(10 ** 1000)],
                 "bca5f5f63e0c2b607263773cb5eb5445728a1b3ecccbd019f12b101b4165449e")):
            code = main(["verify", *args])
            out = capsys.readouterr().out
            assert code == 1
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args
        # arbitrary and tiny z.  Reporting "not all primes split in K" instead
        # of a profile violation at inert primes will change this digest on
        # purpose (ROADMAP item 1)
        zs = [10 ** 15 + k for k in range(1141, 1147)] + [1, -7, 2, 10 ** 1000 + 7]
        codes, out = [], ""
        for z in zs:
            codes.append(main(["verify", "--z", str(z)]))
            out += capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [1, 1, 1, 1, 1, 1, 0, 1, 1, 1]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "cc5dbef93202fc2b540af690f7314ec5d571668e49caf05069cc3f36937a553a"


def test_cmd_verify_records_pinned_at_1e4000(capsys):
    # radicands of about 48,000 digits, whose digits split from
    # P_7 = 10^38400 down, deeper than any other pin reaches
    limit = sys.get_int_max_str_digits()
    try:
        code = main(["verify", "--batch", "5", "--start", str(10 ** 4000)])
        out = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "eae2a4d9ea79356346e5570989a209485f8160114d13926818a77ef1bb286969"


def test_cmd_verify_pole_error_record(capsys):
    code, records = run_cli(["verify", "--z", "0"], capsys)
    assert code == 1
    assert records == [{"record": "error", "schema": 1, "error": "PoleError",
                        "message": "evaluation at pole z=0"}]


def test_cmd_paper_check_and_derive_records_pinned(capsys, tmp_path):
    # SHA-256 of the paper-check and derive stdout and of the derive --emit
    # file, recorded before the symbolic kernel and abscissa became closed
    # forms; any drift in these records fails here
    code = main(["paper-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c79b1c5f8d44ddb4d34fc07519ec93cf909067290ead0059316e461037fc7820"
    emit = tmp_path / "specialization.json"
    for args in ([], ["--emit", str(emit)]):
        code = main(["derive", *args])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "4359386858c81c31c90dcf825d4c658f886b831097ff13d6391fe28348c7f122"
    assert hashlib.sha256(emit.read_bytes()).hexdigest() == \
        "cac00b8aef14891da3da99f93f7fbd474482522abb58c325fa8d63156a13a5bb"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check in the package may
    # rest on one
    import ast
    import pathlib

    import fiverank

    package = pathlib.Path(fiverank.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert "classgroup.py" in {path.name for path in paths}, package
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)]
    assert not offenders, offenders


def test_no_module_imports_a_private_name():
    # a name with a leading underscore belongs to its module: no other
    # module of the package imports it
    import ast
    import pathlib

    import fiverank

    package = pathlib.Path(fiverank.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def test_package_imports_only_the_standard_library():
    # the package runs on a bare interpreter: every absolute import names a
    # standard-library module or the package itself.  No linter runs on
    # the package, so this also refuses an imported name that its module
    # never uses, unless the import line carries "# noqa: F401"
    import ast
    import pathlib

    import fiverank

    package = pathlib.Path(fiverank.__file__).parent
    offenders, unused = [], []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] not in sys.stdlib_module_names
                          and name.split(".")[0] != "fiverank"]
            if names == ["__future__"]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not offenders, offenders
    assert not unused, unused
