"""Command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
secret int key = 1;
int result = 0;

void main() {
  int acc = 0;
  if (key) { acc = acc + 7; } else { acc = acc - 3; }
  result = acc;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "victim.mc"
    path.write_text(SOURCE)
    return str(path)


def test_compile_command(source_file, capsys):
    assert main(["compile", source_file, "--defense", "sempe"]) == 0
    out = capsys.readouterr().out
    assert "sJMPs=1" in out
    assert "sbeq" in out or "sbne" in out or "eosjmp" in out


def test_compile_defense_picks_compile_mode(source_file, capsys):
    """``compile --defense NAME`` compiles with the scheme's compiler
    mode: the same listing as ``compile_source(..., mode=...)``."""
    from repro.lang.compiler import compile_source

    assert main(["compile", source_file, "--defense", "cte"]) == 0
    out = capsys.readouterr().out
    expected = compile_source(SOURCE, mode="cte").program.listing()
    assert out.splitlines()[0].startswith("; mode=cte ")
    assert out.split("\n", 1)[1] == expected + "\n"


def test_compile_with_collapse(source_file, capsys):
    assert main(["compile", source_file, "--collapse-ifs"]) == 0


def test_run_command(source_file, capsys):
    assert main(["run", source_file, "--defense", "sempe",
                 "--globals", "result"]) == 0
    out = capsys.readouterr().out
    assert "machine:       SeMPE" in out
    assert "result = 7" in out
    assert "secure regions" in out


def test_run_legacy_machine(source_file, capsys):
    assert main(["run", source_file, "--defense", "sempe", "--legacy",
                 "--globals", "result"]) == 0
    out = capsys.readouterr().out
    assert "machine:       baseline" in out
    assert "result = 7" in out


def test_run_engine_flag_bit_identical(source_file, capsys):
    assert main(["run", source_file, "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert main(["run", source_file, "--engine", "reference"]) == 0
    reference_out = capsys.readouterr().out
    assert fast_out == reference_out
    assert "cycles:" in fast_out


def test_run_unknown_global(source_file, capsys):
    assert main(["run", source_file, "--globals", "nope"]) == 0
    assert "<no such global>" in capsys.readouterr().out


def test_check_secure(source_file, capsys):
    code = main(["check", source_file, "--defense", "sempe",
                 "--secret", "key", "--values", "0,1,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SECURE" in out


def test_check_leaky(source_file, capsys):
    code = main(["check", source_file, "--defense", "plain",
                 "--secret", "key", "--values", "0,1,5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKS" in out


def test_disasm_shows_both_decodes(source_file, capsys):
    assert main(["disasm", source_file]) == 0
    out = capsys.readouterr().out
    assert "; SeMPE decode" in out
    assert "; legacy decode (SecPrefix ignored)" in out
    assert "eosJMP (join point; NOP on legacy)" in out


def test_workloads_list(capsys):
    from repro.workloads.registry import workload_names

    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("modexp", "djpeg", "memcmp", "table_lookup", "bsearch",
                 "gcd"):
        assert name in out
    count = len(workload_names())
    assert count >= 6                        # the acceptance floor
    assert f"{count} workloads registered" in out
    # default action is list
    assert main(["workloads"]) == 0
    assert "Victim workload registry" in capsys.readouterr().out


def test_workloads_show(capsys):
    assert main(["workloads", "show", "memcmp", "--params", "n=4"]) == 0
    out = capsys.readouterr().out
    assert "secret int pw[4];" in out
    assert "declared channels:" in out
    assert "derived channels:" in out


def test_workloads_show_flags_undeclared_derived_channels(capsys):
    """modexp declares no memory-address channel, but the static view of
    a secret branch charges it — the mismatch note must be visible."""
    assert main(["workloads", "show", "modexp"]) == 0
    out = capsys.readouterr().out
    assert "statically derived but not declared" in out


def test_workloads_show_requires_name(capsys):
    assert main(["workloads", "show"]) == 2
    assert "requires a workload name" in capsys.readouterr().err


def test_workloads_list_rejects_trailing_name(capsys):
    assert main(["workloads", "list", "gcd"]) == 2
    assert "workloads show gcd" in capsys.readouterr().err


def test_run_workload(capsys):
    assert main(["run", "--workload", "gcd", "--globals", "out"]) == 0
    out = capsys.readouterr().out
    assert "machine:       SeMPE" in out
    assert "out = 40902" in out      # gcd(0, 40902) with the default secret


def test_run_workload_param_override(capsys):
    assert main(["run", "--workload", "gcd", "--params", "other=35",
                 "--globals", "out"]) == 0
    assert "out = 35" in capsys.readouterr().out


def test_run_rejects_file_plus_workload(source_file, capsys):
    assert main(["run", source_file, "--workload", "gcd"]) == 2
    assert "not both" in capsys.readouterr().err


def test_run_unknown_workload_is_usage_error(capsys):
    assert main(["run", "--workload", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_bad_params_are_usage_errors(capsys):
    assert main(["run", "--workload", "gcd", "--params", "nope=1"]) == 2
    assert "no parameter" in capsys.readouterr().err
    assert main(["run", "--workload", "gcd", "--params", "bogus"]) == 2
    assert "key=value" in capsys.readouterr().err
    # Builder-level validation surfaces the same way.
    assert main(["run", "--workload", "bsearch",
                 "--params", "entries=10"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_run_workload_collapse_ifs_threads_through(capsys, monkeypatch):
    """--collapse-ifs must reach the workload compiler, not be silently
    dropped on the --workload path."""
    from repro.workloads.registry import get_workload

    spec = get_workload("memcmp")
    seen = {}
    original = spec.compile

    def spying_compile(mode, collapse_ifs=False, **overrides):
        seen["collapse_ifs"] = collapse_ifs
        return original(mode, collapse_ifs=collapse_ifs, **overrides)

    monkeypatch.setattr(type(spec), "compile",
                        lambda self, mode, collapse_ifs=False, **kw:
                        spying_compile(mode, collapse_ifs, **kw))
    assert main(["run", "--workload", "memcmp", "--collapse-ifs"]) == 0
    assert seen["collapse_ifs"] is True
    assert main(["run", "--workload", "memcmp"]) == 0
    assert seen["collapse_ifs"] is False


def test_check_workload_accepts_params(capsys):
    code = main(["check", "--workload", "gcd", "--defense", "sempe",
                 "--params", "bits=8"])
    assert code == 0
    assert "SECURE" in capsys.readouterr().out


def test_check_workload_honours_explicit_values(capsys):
    """--values overrides the spec's representative secrets: a single
    value cannot leak (nothing to distinguish), so plain reports
    SECURE."""
    assert main(["check", "--workload", "gcd", "--defense", "plain",
                 "--values", "7"]) == 0
    assert "SECURE" in capsys.readouterr().out
    assert main(["check", "--workload", "gcd", "--defense", "plain",
                 "--values", "7,40902"]) == 1
    assert "LEAKS" in capsys.readouterr().out


def test_run_requires_file_or_workload(capsys):
    assert main(["run"]) == 2
    assert "required" in capsys.readouterr().err


def test_check_workload_plain_leaks(capsys):
    code = main(["check", "--workload", "gcd", "--defense", "plain"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKS" in out


def test_check_workload_sempe_secure(capsys):
    code = main(["check", "--workload", "gcd", "--defense", "sempe"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SECURE" in out


def test_check_file_requires_secret(source_file, capsys):
    assert main(["check", source_file]) == 2
    assert "--secret is required" in capsys.readouterr().err


def test_check_rejects_contradictory_flags(source_file, capsys):
    assert main(["check", "--workload", "gcd", "--secret", "ekey"]) == 2
    assert "conflicts with --workload" in capsys.readouterr().err
    assert main(["check", source_file, "--secret", "key",
                 "--params", "n=4"]) == 2
    assert "--params only applies" in capsys.readouterr().err
    assert main(["check", "--workload", "gcd", "--values", "7,abc"]) == 2
    assert "invalid --values" in capsys.readouterr().err


def test_run_rejects_params_with_file(source_file, capsys):
    assert main(["run", source_file, "--params", "n=4"]) == 2
    assert "--params only applies" in capsys.readouterr().err


def test_experiments_table2(capsys):
    assert main(["experiments", "table2"]) == 0
    assert "2.0 GHz" in capsys.readouterr().out


def test_experiments_unknown(capsys):
    assert main(["experiments", "nope"]) == 2


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SOURCE))
    assert main(["compile", "-"]) == 0
    assert "sJMPs=1" in capsys.readouterr().out


# --------------------------------------------------------------------------
# attack command
# --------------------------------------------------------------------------

ATTACK_ARGS = ["attack", "run", "--workload", "memcmp",
               "--attacker", "prime-probe", "--trials", "16",
               "--engine", "fast"]


@pytest.mark.attack
def test_attack_list(capsys):
    assert main(["attack", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("timing", "prime-probe", "flush-reload",
                 "predictor-probe", "branch-trace", "mistrain-reload"):
        assert name in out
    assert "6 attackers registered" in out


@pytest.mark.attack
@pytest.mark.slow
def test_attack_run_both_machines(capsys):
    assert main(ATTACK_ARGS) == 0
    out = capsys.readouterr().out
    assert "baseline machine:" in out and "SeMPE machine:" in out
    assert "verdict:       recovered" in out
    assert "verdict:       chance" in out
    assert "key recovered on baseline, defeated by SeMPE" in out


@pytest.mark.attack
@pytest.mark.slow
def test_attack_run_single_mode_and_store(tmp_path, capsys):
    from repro.harness import clear_cache, set_store

    clear_cache()
    previous = set_store(None)
    try:
        store_dir = str(tmp_path / "attacks")
        args = ATTACK_ARGS + ["--defense", "plain", "--store", store_dir,
                              "--cache-stats"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "SeMPE machine:" not in out
        assert f"store [{store_dir}]" in out and "stores=1" in out
        # Second invocation is served from the on-disk store.
        clear_cache()
        assert main(args) == 0
        assert "hits=1" in capsys.readouterr().out
    finally:
        set_store(previous)
        clear_cache()


@pytest.mark.attack
def test_attack_run_requires_workload_and_attacker(capsys):
    assert main(["attack", "run"]) == 2
    assert "requires --workload and --attacker" in capsys.readouterr().err


@pytest.mark.attack
def test_attack_unknown_attacker(capsys):
    assert main(["attack", "run", "--workload", "memcmp",
                 "--attacker", "psychic"]) == 2
    assert "unknown attacker" in capsys.readouterr().err


@pytest.mark.attack
def test_attack_inapplicable_pair(capsys):
    assert main(["attack", "run", "--workload", "modexp",
                 "--attacker", "flush-reload"]) == 2
    err = capsys.readouterr().err
    assert "does not declare" in err and "applicable" in err


@pytest.mark.attack
def test_attack_list_rejects_run_flags(capsys):
    assert main(["attack", "list", "--workload", "memcmp"]) == 2


# --------------------------------------------------------------------------
# sweep command + cache/store statistics
# --------------------------------------------------------------------------

@pytest.fixture
def clean_harness():
    from repro.harness import clear_cache, set_store

    clear_cache()
    previous = set_store(None)
    yield
    set_store(previous)
    clear_cache()


SWEEP_ARGS = ["sweep", "fig10a", "--w", "1", "--workloads", "fibonacci",
              "--jobs", "1", "--cache-stats"]


def test_sweep_smoke(clean_harness, tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "Fig. 10a" in out
    assert "3 cells" in out and "3 computed" in out
    assert "run cache:" in out
    assert f"store [{store_dir}]" in out and "stores=3" in out


def test_sweep_second_invocation_served_from_store(clean_harness, tmp_path,
                                                   capsys):
    from repro.harness import clear_cache

    store_dir = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    first = capsys.readouterr().out
    clear_cache()                       # simulate a fresh process
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    second = capsys.readouterr().out
    assert "3 from store" in second and "0 computed" in second
    # the rendered table is identical either way
    assert first.split("run cache:")[0].split("sweep fig10a:")[0] == \
        second.split("run cache:")[0].split("sweep fig10a:")[0]


def test_sweep_no_store(clean_harness, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SWEEP_ARGS + ["--no-store"]) == 0
    out = capsys.readouterr().out
    assert "store: (none)" in out
    assert not (tmp_path / ".repro-store").exists()


def test_sweep_progress_goes_to_stderr(clean_harness, tmp_path, capsys):
    """`repro sweep --progress | jq`-style piping: the live progress is
    stderr-only and stdout stays byte-identical to a silent sweep."""
    assert main(SWEEP_ARGS + ["--progress", "--no-store"]) == 0
    captured = capsys.readouterr()
    assert "[3/3]" in captured.err            # live cell progress
    assert "\r[" not in captured.out          # no progress in the tables
    assert "[1/3]" not in captured.out
    assert "Fig. 10a" in captured.out

    from repro.harness import clear_cache

    clear_cache()                             # force a recomputation
    assert main(SWEEP_ARGS + ["--no-store"]) == 0
    silent = capsys.readouterr()
    assert silent.err == ""                   # no --progress, no stderr
    assert silent.out == captured.out         # machine-parseable either way


def test_sweep_unknown_experiment(clean_harness, capsys):
    assert main(["sweep", "fig99"]) == 2


def test_run_cache_stats_flag(clean_harness, source_file, capsys):
    assert main(["run", source_file, "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "run cache: hits=" in out
    assert "store: (none)" in out


def test_experiments_cache_stats_flag(clean_harness, capsys):
    assert main(["experiments", "table2", "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "run cache: hits=" in out


def test_sweep_invalid_workloads_and_sizes(clean_harness, tmp_path, capsys):
    assert main(["sweep", "fig10a", "--workloads", "bogus",
                 "--store", str(tmp_path / "s1")]) == 2
    assert "unknown workloads" in capsys.readouterr().err
    assert not (tmp_path / "s1").exists()     # rejected before store I/O
    assert main(["sweep", "fig8", "--sizes", "12x",
                 "--store", str(tmp_path / "s2")]) == 2
    assert "invalid --sizes" in capsys.readouterr().err
    assert not (tmp_path / "s2").exists()


def test_sweep_no_store_clears_installed_store(clean_harness, tmp_path,
                                               capsys):
    from repro.harness import get_store

    store_dir = str(tmp_path / "store")
    assert main(SWEEP_ARGS + ["--store", store_dir]) == 0
    capsys.readouterr()
    assert get_store() is not None
    assert main(SWEEP_ARGS + ["--no-store"]) == 0
    assert get_store() is None
    assert "store: (none)" in capsys.readouterr().out


# --------------------------------------------------------------------------
# Defense registry commands and the --defense flag
# --------------------------------------------------------------------------


def test_defenses_list(capsys):
    assert main(["defenses", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("plain", "sempe", "cte", "fence", "cache-partition",
                 "cache-randomize", "flush-local"):
        assert name in out
    assert "defenses registered" in out


def test_defenses_show(capsys):
    assert main(["defenses", "show", "cache-partition"]) == 0
    out = capsys.readouterr().out
    assert "protected_ways" in out
    assert "fingerprint:" in out
    assert "cache-state" in out


def test_defenses_show_requires_name(capsys):
    assert main(["defenses", "show"]) == 2
    assert "requires a defense name" in capsys.readouterr().err


def test_defenses_unknown_name(capsys):
    assert main(["defenses", "show", "rot13"]) == 2
    assert "unknown defense" in capsys.readouterr().err


def test_defenses_list_rejects_extra_argument(capsys):
    assert main(["defenses", "list", "fence"]) == 2
    assert "defenses show fence" in capsys.readouterr().err


def test_run_with_defense_flag(capsys):
    assert main(["run", "--workload", "gcd", "--defense", "fence"]) == 0
    out = capsys.readouterr().out
    assert "defense:       fence" in out
    assert "machine:       baseline" in out


def test_run_rejects_mode_flag(source_file, capsys):
    """``--defense`` is the only way to pick a scheme; ``--mode`` is
    an unknown argument."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", source_file, "--defense", "fence",
              "--mode", "plain"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_run_unknown_defense(source_file, capsys):
    assert main(["run", source_file, "--defense", "rot13"]) == 2
    assert "unknown defense" in capsys.readouterr().err


def test_run_plain_defense_selects_baseline_machine(source_file, capsys):
    assert main(["run", source_file, "--defense", "plain"]) == 0
    out = capsys.readouterr().out
    assert "defense:       plain" in out
    assert "machine:       baseline" in out


def test_check_with_defense_flag(capsys):
    # fence closes the predictor channel on table_lookup but leaves
    # timing open, so the audit exits 1 (leaks remain) with verdict text.
    code = main(["check", "--workload", "table_lookup",
                 "--defense", "fence"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKS via" in out
    assert "branch-predictor" not in out.splitlines()[-1]


def test_attack_run_with_defense(capsys):
    assert main(["attack", "run", "--workload", "memcmp",
                 "--attacker", "prime-probe", "--trials", "16",
                 "--defense", "cache-partition", "--engine",
                 "fast"]) == 0
    out = capsys.readouterr().out
    assert "cache-partition-protected machine:" in out
    assert "defeated by cache-partition" in out


def test_attack_rejects_mode_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["attack", "run", "--workload", "memcmp",
              "--attacker", "prime-probe", "--defense",
              "cache-partition", "--mode", "plain"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_experiments_defensematrix_listed(capsys):
    from repro.harness import EXPERIMENTS

    assert "defensematrix" in EXPERIMENTS


# --------------------------------------------------------------------------
# verify command: the static-vs-dynamic differential gate
# --------------------------------------------------------------------------

def test_verify_single_pair(clean_harness, capsys):
    assert main(["verify", "--workload", "gcd",
                 "--defense", "sempe"]) == 0
    out = capsys.readouterr().out
    assert "Static-vs-dynamic differential" in out
    assert "1/1 pairs ok" in out


def test_verify_one_workload_all_defenses(clean_harness, capsys):
    from repro.defenses import defense_names

    assert main(["verify", "--workload", "gcd"]) == 0
    out = capsys.readouterr().out
    total = len(defense_names())
    assert f"{total}/{total} pairs ok" in out
    # The explained gap is reported, never flagged.
    assert "UNSOUND" not in out


def test_verify_sites_flag_prints_provenance(clean_harness, capsys):
    assert main(["verify", "--workload", "gcd", "--defense", "plain",
                 "--sites"]) == 0
    out = capsys.readouterr().out
    assert "[branch]" in out
    assert "pc=0x" in out and "line=" in out


def test_verify_store_round_trip(clean_harness, tmp_path, capsys):
    from repro.harness import clear_cache

    store_dir = str(tmp_path / "store")
    args = ["verify", "--workload", "gcd", "--defense", "sempe",
            "--store", store_dir, "--cache-stats"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "stores=1" in first
    clear_cache()
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "hits=1" in second.split("store [")[1]
    assert first.split("run cache:")[0] == second.split("run cache:")[0]


def test_verify_rejects_unknown_names(clean_harness, capsys):
    assert main(["verify", "--workload", "nope"]) == 2
    assert main(["verify", "--defense", "nope"]) == 2


# --------------------------------------------------------------------------
# fault tolerance: policy flags, failure summaries, exit codes
# --------------------------------------------------------------------------

FT_ARGS = ["sweep", "fig10a", "--w", "1", "--workloads", "ones",
           "--jobs", "1"]


def test_sweep_chaos_requires_timeout(clean_harness, capsys):
    assert main(FT_ARGS + ["--no-store", "--chaos", "1"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_sweep_rejects_bad_policy_values(clean_harness, capsys):
    assert main(FT_ARGS + ["--no-store", "--timeout", "0"]) == 2
    assert "--timeout must be positive" in capsys.readouterr().err
    assert main(FT_ARGS + ["--no-store", "--retries", "-1"]) == 2
    assert "--retries must be >= 0" in capsys.readouterr().err
    assert main(FT_ARGS + ["--no-store", "--max-instructions", "0"]) == 2
    assert "--max-instructions must be positive" in capsys.readouterr().err


def test_sweep_failure_lifecycle_exit_codes(clean_harness, tmp_path,
                                            capsys):
    """fuel-fail -> quarantine skip on resume -> --retry-quarantined
    recovers; exit codes 1 / 1 / 0 along the way."""
    from repro.harness import clear_cache

    store_dir = str(tmp_path / "store")
    # every cell exhausts an absurdly small fuel budget: exit 1
    assert main(FT_ARGS + ["--store", store_dir,
                           "--max-instructions", "10"]) == 1
    out = capsys.readouterr().out
    assert "Failed cells (3)" in out
    assert "fuel-exhausted" in out and "quarantined" in out
    assert "tables not rendered" in out
    assert "3 failed" in out

    # resume skips the quarantined cells instead of re-running them
    clear_cache()
    assert main(FT_ARGS + ["--store", store_dir]) == 1
    out = capsys.readouterr().out
    assert "3 quarantined" in out
    assert "--retry-quarantined" in out

    # clearing the quarantine (without the tiny budget) recovers fully
    clear_cache()
    assert main(FT_ARGS + ["--store", store_dir,
                           "--retry-quarantined"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 10a" in out and "3 computed" in out


def test_sweep_abort_exit_code(clean_harness, capsys):
    assert main(FT_ARGS + ["--no-store", "--max-instructions", "10",
                           "--max-failures", "0"]) == 3
    out = capsys.readouterr().out
    assert "ABORTED" in out


def test_sweep_progress_reports_failures(clean_harness, capsys):
    assert main(FT_ARGS + ["--no-store", "--progress",
                           "--max-instructions", "10"]) == 1
    err = capsys.readouterr().err
    assert "[3/3, 3 failed]" in err


def test_sweep_interrupt_exit_code(clean_harness, monkeypatch, capsys):
    from repro.harness import parallel
    from repro.harness.failures import RunOutcome, SweepInterrupted

    def interrupted(cells, jobs=1, progress=None, policy=None):
        raise SweepInterrupted(RunOutcome(total=3, computed=1))

    monkeypatch.setattr(parallel, "run_cells", interrupted)
    assert main(FT_ARGS + ["--no-store"]) == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "INTERRUPTED" in captured.out


@pytest.mark.slow
def test_sweep_chaos_smoke(clean_harness, tmp_path, capsys):
    """The chaos harness end to end: seeded faults over a real sweep,
    nonzero exit, failure table, deterministic across reruns."""
    store_a = str(tmp_path / "a")
    args = FT_ARGS + ["--timeout", "2", "--chaos", "1",
                      "--chaos-rate", "1.0"]
    assert main(args + ["--store", store_a]) == 1
    captured = capsys.readouterr()
    assert "chaos: injecting 3 faults across 3 cells" in captured.err
    assert "Failed cells (3)" in captured.out

    from repro.harness import clear_cache

    clear_cache()
    store_b = str(tmp_path / "b")
    assert main(args + ["--store", store_b]) == 1
    assert "Failed cells (3)" in capsys.readouterr().out

    def tree(root):
        import os

        snapshot = {}
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    snapshot[os.path.relpath(path, root)] = handle.read()
        return snapshot

    assert tree(store_a) == tree(store_b)
