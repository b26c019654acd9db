"""Command-line interface."""

import argparse
import dataclasses
import json
import pathlib

import pytest

from repro.cli import _spec, build_parser, main
from repro.fast.backends import keystream_backends
from repro.harness.parallel import BenchSpec
from repro.harness.study import StudySpec
from repro.memsim.cpu.trace import load_trace
from repro.persist.crashsim import CrashSimSpec
from repro.resilience.campaign import CampaignSpec
from repro.resilience.torture import TortureSpec
from repro.service.chaos import ChaosSpec
from repro.service.loadgen import LoadgenSpec
from repro.workloads.parsec import figure8_apps


def _argument_choices(parser, command, option):
    """The argparse ``choices`` list for ``command --option``."""
    subparsers = next(
        action
        for action in parser._actions
        if hasattr(action, "choices") and command in (action.choices or {})
    )
    sub = subparsers.choices[command]
    action = next(a for a in sub._actions if option in a.option_strings)
    return list(action.choices)


#: every spec-backed subcommand and the harness spec its flags fill
SPEC_COMMANDS = {
    "bench": BenchSpec,
    "study": StudySpec,
    "resilience": CampaignSpec,
    "crash": CrashSimSpec,
    "torture": TortureSpec,
    "loadgen": LoadgenSpec,
    "chaos": ChaosSpec,
}


def _subparser(command):
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if command in (getattr(action, "choices", None) or {})
    )
    return subparsers.choices[command]


class TestSpecFlags:
    """A spec-backed flag parses straight into its spec's field and has
    no default of its own, so the spec is the one owner of each default
    and a renamed field cannot silently drop its flag."""

    @pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
    def test_suppressed_flags_name_spec_fields(self, command):
        spec = SPEC_COMMANDS[command]()
        names = {f.name for f in dataclasses.fields(spec)}
        for value in vars(spec).values():
            if dataclasses.is_dataclass(value):
                names |= {f.name for f in dataclasses.fields(value)}
        suppressed = [
            action.dest for action in _subparser(command)._actions
            if action.default is argparse.SUPPRESS
            and action.dest != "help"
        ]
        assert suppressed
        assert set(suppressed) <= names, set(suppressed) - names

    @pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
    def test_no_flags_build_the_default_spec(self, command):
        args = build_parser().parse_args([command])
        expected = SPEC_COMMANDS[command]()
        if command == "bench":
            # the figure-8 app list is the one CLI-side default
            expected = BenchSpec(apps=tuple(figure8_apps()))
        assert _spec(SPEC_COMMANDS[command], args) == expected

    def test_flags_fill_their_fields(self):
        args = build_parser().parse_args(
            ["loadgen", "--ops", "7", "--max-bytes", "99", "--kill-shard",
             "1"]
        )
        spec = _spec(LoadgenSpec, args)
        assert spec.ops_per_tenant == 7
        assert spec.kill_shard == 1
        assert spec.quota.max_bytes_written == 99
        assert spec.quota.rate_ops == LoadgenSpec().quota.rate_ops
        args = build_parser().parse_args(
            ["crash", "--preset", "endurance", "--groups", "3"]
        )
        assert _spec(CrashSimSpec, args) == CrashSimSpec(
            preset="endurance", group_count=3
        )


#: one flag value per spec command that its spec rejects, and the message
SPEC_ERRORS = {
    "bench": (["--apps", "stream", "--accesses", "0"],
              "accesses must be >= 1"),
    "study": (["--apps", "stream", "--cores", "0"], "cores must be >= 1"),
    "resilience": (["--write-fraction", "2", "--operations", "10"],
                   "write_fraction must be in [0, 1]"),
    "crash": (["--groups", "0"], "group_count must be >= 1"),
    "torture": (["--cycles", "0"], "cycles and ops_per_cycle must be >= 1"),
    "loadgen": (["--tenants", "0"], "tenants and shards must be >= 1"),
    "chaos": (["--kill-shard", "5"], "kill_shard out of range"),
}


class TestSpecValueErrors:
    """A value the spec rejects is a usage error: the spec's message on
    stderr after the subcommand's usage, exit 2, no traceback."""

    def test_every_spec_command_has_a_case(self):
        assert set(SPEC_ERRORS) == set(SPEC_COMMANDS)

    @pytest.mark.parametrize("command", sorted(SPEC_ERRORS))
    def test_exit_two_with_the_spec_message(self, command, capsys):
        flags, message = SPEC_ERRORS[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {command}")
        assert f"repro {command}: error: {message}\n" in err
        assert "Traceback" not in err


class TestRunArguments:
    """``--workers``, ``--stride`` and ``--limit`` size the run itself,
    not the spec: a value below 1 is a usage error, never a traceback
    nor a run of nothing that passes."""

    @pytest.mark.parametrize("argv", [
        ["bench", "--apps", "stream", "--accesses", "100", "--workers", "0"],
        ["crash", "--stride", "0"],
        ["crash", "--limit", "0"],
        ["torture", "--limit", "0"],
        ["torture", "--limit", "-3"],
    ])
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be >= 1\n" in err
        assert "Traceback" not in err


GOLDEN_HELP = pathlib.Path(__file__).parent / "golden" / "cli_help"


class TestGoldenHelp:
    """``repro --help`` and every subcommand's ``--help`` at 80 columns
    match the recorded text byte for byte.  Python 3.10 renamed argparse's
    ``optional arguments:`` heading to ``options:``; that is the one
    difference normalized away."""

    @staticmethod
    def _help(argv, monkeypatch, capsys) -> str:
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out.replace(
            "\noptional arguments:\n", "\noptions:\n"
        )

    def test_one_golden_per_command(self):
        subcommands = next(
            action.choices for action in build_parser()._actions
            if "bench" in (getattr(action, "choices", None) or {})
        )
        assert {p.stem for p in GOLDEN_HELP.glob("*.txt")} == {
            "repro", *subcommands
        }

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in GOLDEN_HELP.glob("*.txt"))
    )
    def test_help_is_byte_identical(self, name, monkeypatch, capsys):
        argv = [] if name == "repro" else [name]
        expected = (GOLDEN_HELP / f"{name}.txt").read_text()
        assert self._help(argv, monkeypatch, capsys) == expected


class TestKeystreamRegistryLock:
    """The argparse surface must be derived from the backend registry,
    never hand-maintained: registering a new backend must make it
    selectable everywhere without touching the CLI."""

    @pytest.mark.parametrize(
        "command,option",
        [
            ("bench", "--keystream"),
            ("study", "--keystreams"),
            ("loadgen", "--keystream"),
        ],
    )
    def test_choices_match_registry(self, command, option):
        parser = build_parser()
        assert _argument_choices(parser, command, option) == list(
            keystream_backends()
        )

    def test_registry_names_parse(self):
        parser = build_parser()
        for name in keystream_backends():
            args = parser.parse_args(
                ["bench", "--apps", "stream", "--keystream", name]
            )
            assert args.keystream == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "--apps", "stream", "--keystream", "aes"]
            )


class TestBench:
    def test_exit_zero_and_table(self, capsys):
        code = main(
            ["bench", "--apps", "stream", "--accesses", "2000",
             "--region-mb", "2", "--workers", "2",
             "--keystream", "fast", "--mode", "sampled:8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream" in out and "paranoid divergences: 0" in out

    def test_failed_verdict_exits_one(self, monkeypatch, capsys):
        import repro.cli as cli

        run_bench = cli.run_bench

        def mismatching(spec, workers):
            report = run_bench(spec, workers=workers)
            report.to_json()["results"]["stream"]["readback_mismatches"] = 1
            return report

        monkeypatch.setattr(cli, "run_bench", mismatching)
        code = main(["bench", "--apps", "stream", "--accesses", "500",
                     "--region-mb", "2"])
        assert code == 1

    def test_unknown_mode_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--mode", "reference"])
        assert "fast, paranoid, sampled:N" in capsys.readouterr().err


class TestLoadgen:
    def test_failed_claim_exits_one(self, monkeypatch, capsys):
        import repro.cli as cli

        run_loadgen = cli.run_loadgen

        def restart_lost(spec, root):
            report = run_loadgen(spec, root)
            del report.to_json()["results"]["kill_events"][1:]
            return report

        monkeypatch.setattr(cli, "run_loadgen", restart_lost)
        code = main(["loadgen", "--tenants", "2", "--ops", "10",
                     "--region-kb", "8", "--kill-shard", "0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL chaos restart event missing from the record" in out


class TestStudy:
    def test_sweep_exit_zero_and_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_study.json"
        code = main(
            ["study", "--apps", "stream", "--accesses", "2000",
             "--region-mb", "2", "--keystreams", "reference", "fast",
             "--modes", "fast", "--workers-list", "1",
             "--json-out", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Perf study" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.study/1"
        assert len(payload["flavors"]) == 2
        assert payload["summary"]["aes_family_digest_agreement"] is True
        assert payload["summary"]["readback_mismatches"] == 0


class TestFigure1:
    def test_prints_breakdowns(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "optimized" in out
        assert "counter compaction" in out


class TestFigure3:
    def test_prints_matrix(self, capsys):
        assert main(["figure3", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "3 flips inside one 8-byte word" in out
        assert "MAC-based ECC" in out


class TestTable2:
    def test_subset_run(self, capsys):
        code = main(
            ["table2", "--apps", "swaptions", "--accesses", "5000",
             "--region-mb", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "swaptions" in out

    def test_rejects_unknown_app(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--apps", "doom"])


class TestFigure8:
    def test_subset_run(self, capsys):
        code = main(
            ["figure8", "--apps", "dedup", "--accesses", "2000",
             "--region-mb", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dedup" in out and "combined" in out


class TestAttacks:
    def test_all_defended_exit_zero(self, capsys):
        assert main(["attacks", "--region-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert "DEFENDED" in out and "BREACHED" not in out


class TestTrace:
    def test_generates_loadable_file(self, tmp_path, capsys):
        path = tmp_path / "dedup.trc.gz"
        code = main(
            ["trace", "dedup", str(path), "--accesses", "500",
             "--region-mb", "4"]
        )
        assert code == 0
        records = load_trace(path)
        assert len(records) == 500
        assert all(len(r) == 3 for r in records)


class TestResilience:
    def test_campaign_exit_zero(self, capsys):
        code = main(
            ["resilience", "--operations", "400", "--region-kb", "16",
             "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "Reliability summary" in out
        assert "SDC total                     0" in out
        assert "0 mismatches" in out

    def test_stuck_faults_drive_quarantine(self, capsys):
        code = main(
            ["resilience", "--operations", "1500", "--region-kb", "16",
             "--seed", "7", "--stuck-rate", "0.01",
             "--transient-rate", "0.0", "--burst-rate", "0.0",
             "--ce-threshold", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blocks retired" in out
        assert "blocks retired                0" not in out

    def test_separate_mac_preset_runs(self, capsys):
        code = main(
            ["resilience", "--preset", "delta_only", "--operations", "300",
             "--region-kb", "16", "--burst-rate", "0.0",
             "--stuck-rate", "0.0"]
        )
        assert code == 0


class TestResilienceJsonOut:
    def test_artifact_records_seed_and_soundness(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        code = main(
            ["resilience", "--operations", "300", "--region-kb", "16",
             "--seed", "11", "--json-out", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["seed"] == 11
        assert obj["sound"] is True
        assert obj["ground_truth_mismatches"] == 0


class TestCrash:
    def test_bounded_matrix_exit_zero(self, capsys):
        code = main(
            ["crash", "--ops", "6", "--checkpoint-interval", "3",
             "--stride", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crash matrix" in out and "points clean" in out

    def test_single_point_repro(self, capsys):
        code = main(
            ["crash", "--ops", "6", "--checkpoint-interval", "3",
             "--point", "0:torn"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["point"] == "0:torn"
        assert obj["clean"] is True

    def test_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        code = main(
            ["crash", "--ops", "6", "--checkpoint-interval", "3",
             "--limit", "4", "--json-out", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["run_points"] == 4
        assert obj["ok"] is True
        assert obj["spec"]["seed"] == 0xDAC2018

    def test_bad_point_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["crash", "--point", "banana"])

    def test_composed_matrix_exit_zero(self, capsys):
        code = main(
            ["crash", "--ops", "6", "--checkpoint-interval", "3",
             "--batch", "3", "--resilient", "--stride", "6"]
        )
        assert code == 0
        assert "points clean" in capsys.readouterr().out


class TestEndurancePreset:
    """``--preset endurance`` runs the crash matrix and torture with the
    preset's own 2+2-bit dual-length widths, not an empty override."""

    def test_specs_keep_the_preset_widths(self):
        from repro.persist.crashsim import STRESS_SCHEME_KWARGS, CrashSimSpec
        from repro.resilience.torture import TortureSpec

        kwargs = STRESS_SCHEME_KWARGS["endurance"]
        for spec_cls in (CrashSimSpec, TortureSpec):
            config = spec_cls(
                preset="endurance", scheme_kwargs=kwargs
            ).engine_config()
            assert config.counter_scheme == "dual_length"
            assert config.scheme_kwargs["base_delta_bits"] == 2
            assert config.scheme_kwargs["extension_bits"] == 2

    @pytest.mark.parametrize("command", ["crash", "torture"])
    def test_preset_is_selectable(self, command):
        args = build_parser().parse_args([command, "--preset", "endurance"])
        assert args.preset == "endurance"


class TestMonolithicWidths:
    """The monolithic presets' crash/torture widths wrap: every recorded
    run takes at least one global re-encryption."""

    @pytest.mark.parametrize("preset", ["bmt_baseline", "mac_in_ecc"])
    @pytest.mark.parametrize("batch", [0, 4])
    def test_crash_workload_wraps(self, preset, batch):
        from repro.persist.crashsim import (
            STRESS_SCHEME_KWARGS,
            CrashSimSpec,
            run_workload,
        )

        spec = CrashSimSpec(
            preset=preset,
            scheme_kwargs=STRESS_SCHEME_KWARGS[preset],
            batch=batch,
        )
        assert run_workload(spec).oracle.floor_epoch >= 1

    @pytest.mark.parametrize("preset", ["bmt_baseline", "mac_in_ecc"])
    def test_bounded_torture_wraps(self, preset):
        from repro.persist.crashsim import STRESS_SCHEME_KWARGS
        from repro.resilience.torture import TortureCampaign, TortureSpec

        campaign = TortureCampaign(
            TortureSpec(
                preset=preset, scheme_kwargs=STRESS_SCHEME_KWARGS[preset]
            )
        )
        assert campaign.run(limit=20).ok
        assert campaign.stack.engine.scheme.epoch >= 1


class TestTorture:
    def test_bounded_campaign_exit_zero(self, capsys):
        code = main(["torture", "--limit", "2", "--ops", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "OK" in out

    def test_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "torture.json"
        code = main(
            ["torture", "--limit", "2", "--ops", "8",
             "--json-out", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["ok"] is True
        assert obj["cycles_run"] == 2
        assert obj["recoveries"] == 2
        assert obj["spec"]["seed"] == 0xDAC2018


class TestMicroWorkloads:
    def test_table2_accepts_micro_names(self, capsys):
        code = main(
            ["table2", "--apps", "gups", "--accesses", "3000",
             "--region-mb", "4"]
        )
        assert code == 0
        assert "gups" in capsys.readouterr().out

    def test_trace_accepts_micro_names(self, tmp_path, capsys):
        path = tmp_path / "stream.trc.gz"
        code = main(
            ["trace", "stream", str(path), "--accesses", "300",
             "--region-mb", "4"]
        )
        assert code == 0
        assert len(load_trace(path)) == 300
