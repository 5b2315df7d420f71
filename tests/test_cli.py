"""Tests for the caop command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.cycles == 3
        assert args.seed == 7
        assert args.store is None

    @pytest.mark.parametrize("command", ["run", "metrics"])
    def test_cycle_option_defaults(self, command):
        args = build_parser().parse_args([command])
        assert (args.cycles, args.seed, args.entries,
                args.fetch_workers) == (3, 7, 60, None)

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_cvss_command(self, capsys):
        code = main(["cvss", "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"])
        out = capsys.readouterr().out
        assert code == 0
        assert "base score:    8.1 (high)" in out

    def test_cvss_invalid_vector_is_handled(self, capsys):
        code = main(["cvss", "not-a-vector"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_pattern_command(self, capsys):
        code = main(["pattern", "[ipv4-addr:value = '198.51.100.1']"])
        assert code == 0
        assert "pattern is valid" in capsys.readouterr().out

    def test_pattern_invalid(self, capsys):
        code = main(["pattern", "[broken"])
        assert code == 1

    def test_rce_demo(self, capsys):
        code = main(["rce-demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "threat score = 2.7407" in out
        assert "CVE-2017-9805" in out

    def test_run_and_show_with_persistent_store(self, tmp_path, capsys):
        store_path = str(tmp_path / "caop.db")
        code = main(["run", "--cycles", "1", "--entries", "10",
                     "--store", store_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Infrastructure topology" in out
        assert "persisted" in out

        code = main(["show", store_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "events:" in out
        assert "Correlation graph" in out

    def test_run_in_memory(self, capsys):
        code = main(["run", "--cycles", "1", "--entries", "10",
                     "--drop-irrelevant"])
        assert code == 0
        assert "cycle 1:" in capsys.readouterr().out


class TestOperationalCommands:
    def test_sight_and_purge_over_store(self, tmp_path, capsys):
        store_path = str(tmp_path / "caop.db")
        assert main(["run", "--cycles", "1", "--entries", "15",
                     "--store", store_path]) == 0
        capsys.readouterr()

        # Find an eIoC with a correlatable value in the persisted store.
        from repro.core import is_eioc
        from repro.misp import MispStore
        store = MispStore(store_path)
        eioc = next(e for e in store.list_events()
                    if is_eioc(e)
                    and any(a.correlatable for a in e.all_attributes()))
        value = next(a.value for a in eioc.all_attributes() if a.correlatable)
        store.close()

        assert main(["sight", store_path, eioc.uuid, value, "Node 1"]) == 0
        out = capsys.readouterr().out
        assert "threat score:" in out

        assert main(["purge", store_path]) == 0
        out = capsys.readouterr().out
        assert "live scored events" in out
        assert main(["purge", store_path, "--apply"]) == 0

    def test_sight_unknown_event(self, tmp_path, capsys):
        store_path = str(tmp_path / "caop.db")
        assert main(["run", "--cycles", "1", "--entries", "5",
                     "--store", store_path]) == 0
        capsys.readouterr()
        assert main(["sight", store_path, "missing-uuid", "x", "Node 1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_match_command(self, tmp_path, capsys):
        store_path = str(tmp_path / "caop.db")
        assert main(["run", "--cycles", "1", "--entries", "10",
                     "--store", store_path]) == 0
        capsys.readouterr()
        from repro.misp import MispStore
        store = MispStore(store_path)
        value = next(
            a.value for e in store.list_events()
            for a in e.all_attributes() if a.correlatable)
        store.close()
        assert main(["match", store_path, value]) == 0
        out = capsys.readouterr().out
        assert "appears in" in out and "TS=" in out
        assert main(["match", store_path, "definitely-absent.example"]) == 1


class TestFederationCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["federation"])
        assert args.orgs == 10
        assert args.topology == "mesh"

    def test_partition_scenario_converges(self, capsys):
        code = main(["federation", "--orgs", "4", "--events", "1",
                     "--rounds", "2", "--topology", "hub"])
        out = capsys.readouterr().out
        assert code == 0
        assert "store fingerprints matching baseline: 4/4" in out
        assert "converged byte-identically" in out

    def test_too_few_orgs_is_an_error(self, capsys):
        code = main(["federation", "--orgs", "2"])
        assert code == 1
        assert "at least 3 orgs" in capsys.readouterr().err
