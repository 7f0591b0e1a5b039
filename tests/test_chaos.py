"""Tests for the fault-injection layer (``repro.faults``), the hardened
crash-restore machinery (checkpoint generations, hung-worker liveness,
restart budget, poison quarantine), the ``repro chaos`` harness, and the
provenance block (``bench_metadata``) its reports carry."""

import json
import subprocess

import pytest

from repro.cli import main
from repro.core.scheme import OnlineScheme
from repro.evaluation import bench_metadata, chaos
from repro.evaluation.export import git_commit
from repro.faults import (
    DEFAULT_STALL_SECS,
    POISON,
    FaultPlan,
    FaultSpecError,
    parse_fault,
    poison_element,
)
from repro.ir.dsl import add
from repro.ir.nodes import OnlineProgram
from repro.runtime import sources
from repro.runtime.checkpoint import (
    CheckpointError,
    list_generations,
    load_latest_generation,
    save_generation,
    verify_generation,
)
from repro.serve import ServeError, StreamServer, reference_states, states_match


def sum_scheme() -> OnlineScheme:
    return OnlineScheme((0,), OnlineProgram(("s",), "x", (add("s", "x"),)))


def keyed_stream(n, keys=16, seed=3):
    return list(sources.zipf_keys(n, keys=keys, seed=seed))


class TestFaultSpecs:
    @pytest.mark.parametrize("spec", [
        "kill:1:100",
        "stall:0:50:2.5",
        "corrupt-checkpoint:1:3",
        "torn-write:2",
        "poison:0",
    ])
    def test_parse_roundtrip(self, spec):
        assert parse_fault(spec).spec() == spec

    def test_stall_default_secs(self):
        fault = parse_fault("stall:0:10")
        assert fault.secs == DEFAULT_STALL_SECS

    @pytest.mark.parametrize("spec", [
        "explode:1:2",            # unknown kind
        "kill:1",                 # missing AFTER
        "kill:1:0",               # AFTER must be >= 1
        "kill:a:5",               # non-integer shard
        "stall:0:5:0",            # SECS must be > 0
        "stall:0:5:soon",         # SECS must be a number
        "corrupt-checkpoint:0:0",  # GEN must be >= 1
        "torn-write:0",           # NTH must be >= 1
        "torn-write:1:2",         # too many args
        "poison:-1",              # OFFSET must be >= 0
        "poison:",                # missing OFFSET
    ])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault(spec)

    def test_validate_rejects_out_of_range_shard(self):
        with pytest.raises(FaultSpecError, match="2 shard"):
            FaultPlan(["kill:5:100"]).validate(2)
        FaultPlan(["kill:1:100", "torn-write:1"]).validate(2)  # in range: fine

    def test_kills_at(self):
        plan = FaultPlan(["kill:0:10", "kill:1:10", "kill:0:99"])
        assert sorted(plan.kills_at(10)) == [0, 1]
        assert plan.kills_at(99) == [0]
        assert plan.kills_at(11) == []

    def test_shard_plan_slices_per_worker(self):
        plan = FaultPlan(["stall:1:80:5", "corrupt-checkpoint:0:2", "torn-write:3"])
        assert plan.shard_plan(0).corrupt_generations == {2}
        assert plan.shard_plan(0).stall_after is None
        assert plan.shard_plan(1).stall_after == 80
        # torn-write is per-worker, so every shard's slice carries it
        assert plan.shard_plan(1).torn_writes == {3}

    def test_shard_plan_none_when_untouched(self):
        assert FaultPlan(["kill:0:10", "poison:5"]).shard_plan(0) is None

    def test_should_stall_first_incarnation_once(self):
        sp = FaultPlan(["stall:0:10:1"]).shard_plan(0)
        assert not sp.should_stall(9, incarnation=0, stalled=False)
        assert sp.should_stall(10, incarnation=0, stalled=False)
        assert not sp.should_stall(10, incarnation=0, stalled=True)
        assert not sp.should_stall(10, incarnation=1, stalled=False)

    def test_apply_stream_poisons_value_keeps_key(self):
        plan = FaultPlan(["poison:1"])
        out = list(plan.apply_stream([(10, "a"), (20, "b"), (30, "c")]))
        assert out == [(10, "a"), (POISON, "b"), (30, "c")]

    def test_poison_element_plain_value(self):
        assert poison_element(7) == POISON
        assert poison_element((7, 3), None) == POISON

    def test_allows_refusal(self):
        assert FaultPlan(["poison:0"]).allows_refusal("fail")
        assert not FaultPlan(["poison:0"]).allows_refusal("quarantine")
        assert FaultPlan(["corrupt-checkpoint:0:1"]).allows_refusal("fail")
        assert FaultPlan(["torn-write:1"]).allows_refusal("quarantine")
        assert not FaultPlan(["kill:0:5", "stall:0:5"]).allows_refusal("fail")


class TestCheckpointGenerations:
    def test_save_verify_roundtrip(self, tmp_path):
        base = tmp_path / "shard-00"
        path = save_generation({"count": 5}, base, generation=1, consumed=5)
        assert verify_generation(path) == (1, 5, {"count": 5})

    def test_load_latest_picks_newest(self, tmp_path):
        base = tmp_path / "shard-00"
        for gen in (1, 2, 3):
            save_generation({"count": gen * 10}, base, generation=gen, consumed=gen * 10)
        assert load_latest_generation(base) == (3, 30, {"count": 30})

    def test_pruning_keeps_newest_generations(self, tmp_path):
        base = tmp_path / "shard-00"
        for gen in range(1, 7):
            save_generation({}, base, generation=gen, consumed=gen, keep=3)
        assert [g for g, _ in list_generations(base)] == [4, 5, 6]

    def test_digest_catches_payload_tamper(self, tmp_path):
        base = tmp_path / "shard-00"
        path = save_generation({"count": 5}, base, generation=1, consumed=5)
        data = json.loads(path.read_text())
        data["payload"]["count"] = 6
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="digest"):
            verify_generation(path)

    def test_digest_catches_envelope_tamper(self, tmp_path):
        # The digest covers consumed/generation too, not just the payload.
        base = tmp_path / "shard-00"
        path = save_generation({"count": 5}, base, generation=1, consumed=5)
        data = json.loads(path.read_text())
        data["consumed"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="digest"):
            verify_generation(path)

    def test_fallback_quarantines_and_returns_older(self, tmp_path):
        base = tmp_path / "shard-00"
        save_generation({"count": 10}, base, generation=1, consumed=10)
        newest = save_generation({"count": 20}, base, generation=2, consumed=20)
        newest.write_bytes(b"\x00garbage")
        events = []
        got = load_latest_generation(base, on_quarantine=lambda p, e: events.append(p))
        assert got == (1, 10, {"count": 10})
        assert len(events) == 1 and events[0].name.endswith(".corrupt")
        assert not newest.exists()

    def test_all_corrupt_refuses(self, tmp_path):
        base = tmp_path / "shard-00"
        for gen in (1, 2):
            save_generation({}, base, generation=gen, consumed=gen).write_bytes(b"xx")
        with pytest.raises(CheckpointError, match="refusing to restart from scratch"):
            load_latest_generation(base)
        # evidence preserved, lineage emptied
        assert list_generations(base) == []
        assert len(list(tmp_path.glob("*.corrupt*"))) == 2

    def test_no_files_means_fresh_start(self, tmp_path):
        assert load_latest_generation(tmp_path / "shard-00") is None

    def test_pruning_spares_quarantined_files(self, tmp_path):
        base = tmp_path / "shard-00"
        bad = save_generation({}, base, generation=1, consumed=1)
        bad.write_bytes(b"xx")
        with pytest.raises(CheckpointError):
            load_latest_generation(base)
        for gen in range(2, 8):
            save_generation({}, base, generation=gen, consumed=gen, keep=2)
        assert len(list(tmp_path.glob("*.corrupt"))) == 1


class TestServeHardening:
    def _serve(self, stream, tmp_path, with_oracle=True, **kwargs):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            batch_size=8, checkpoint_every=32, fresh=True, **kwargs,
        ) as server:
            for pushed, element in enumerate(stream, start=1):
                server.push(element)
                if kwargs.get("faults") is not None:
                    for sid in kwargs["faults"].kills_at(pushed):
                        server.kill_shard(sid)
            result = server.drain()
        if not with_oracle:  # a poisoned stream would raise in the oracle
            return result, None
        oracle = reference_states(scheme, stream, key_field=1, value_field=0)
        return result, oracle

    def test_corrupt_checkpoint_falls_back_bit_identical(self, tmp_path):
        # The newest generation of shard 0 is corrupted on disk, then the
        # worker is killed: restore must quarantine the damaged file, fall
        # back to an older generation, replay, and still match the oracle.
        stream = keyed_stream(400)
        plan = FaultPlan(["corrupt-checkpoint:0:2", "kill:0:300"]).validate(2)
        result, oracle = self._serve(stream, tmp_path, faults=plan)
        assert states_match(result, oracle)
        assert result.count == len(stream)

    def test_torn_write_falls_back_bit_identical(self, tmp_path):
        stream = keyed_stream(400)
        plan = FaultPlan(["torn-write:2", "kill:0:300", "kill:1:350"]).validate(2)
        result, oracle = self._serve(stream, tmp_path, faults=plan)
        assert states_match(result, oracle)

    def test_fully_corrupt_lineage_refuses_cleanly(self, tmp_path):
        # Every generation shard 0 ever writes is corrupted; when its worker
        # dies there is nothing intact to restore from.  The server must
        # refuse with a ServeError — never silently restart from zero.
        stream = keyed_stream(400)
        plan = FaultPlan(
            ["corrupt-checkpoint:0:%d" % g for g in range(1, 30)] + ["kill:0:350"]
        ).validate(2)
        with pytest.raises(ServeError, match="cannot be restored"):
            self._serve(stream, tmp_path, faults=plan)
        assert list(tmp_path.glob("*.corrupt*")), "no quarantined evidence on disk"

    def test_hung_worker_tripped_by_liveness_deadline(self, tmp_path):
        # A stalled worker never crashes — only the heartbeat deadline can
        # catch it.  The restored replacement (incarnation > 0) skips the
        # stall and the final states still match the oracle.
        stream = keyed_stream(300)
        plan = FaultPlan(["stall:0:50:30"]).validate(2)
        result, oracle = self._serve(
            stream, tmp_path, faults=plan, liveness_timeout_s=0.5,
        )
        assert result.hung_restarts >= 1
        assert states_match(result, oracle)

    def test_restart_budget_window_allows_spread_out_restarts(self, tmp_path):
        # Three kills with a budget of 2 per window: a tiny window lets the
        # timestamps age out, so the run survives where a lifetime cap of 2
        # would have given up.
        stream = keyed_stream(600)
        plan = FaultPlan(["kill:0:100", "kill:0:300", "kill:0:500"]).validate(2)
        result, oracle = self._serve(
            stream, tmp_path, faults=plan,
            restart_budget=2, restart_window_s=0.05, backoff_base_s=0.1,
        )
        assert result.restarts == 3
        assert states_match(result, oracle)

    def test_poison_fail_mode_refuses(self, tmp_path):
        plan = FaultPlan(["poison:50"])
        stream = list(plan.apply_stream(keyed_stream(200), value_index=0))
        with pytest.raises(ServeError, match="worker failed"):
            self._serve(stream, tmp_path)

    def test_poison_quarantine_dead_letters_and_matches_filtered_oracle(self, tmp_path):
        raw = keyed_stream(300)
        plan = FaultPlan(["poison:50", "poison:170"]).validate(2)
        poisoned = list(plan.apply_stream(raw, value_index=0))
        result, _ = self._serve(
            poisoned, tmp_path, with_oracle=False, on_error="quarantine",
        )
        assert result.dead_lettered == 2
        # the non-poisoned elements must still be bit-identical to an oracle
        # run over the stream with the poisoned offsets removed
        clean = [e for i, e in enumerate(raw) if i not in plan.poison_offsets]
        oracle = reference_states(sum_scheme(), clean, key_field=1, value_field=0)
        assert states_match(result, oracle)
        letters = chaos.read_dead_letters(tmp_path)
        assert len(letters) == 2
        assert all(POISON in rec["element"] for rec in letters)

    def test_quarantine_survives_a_kill_without_reapplying(self, tmp_path):
        # Dead-lettered elements are part of the consumed prefix: a crash
        # after quarantining must not replay them into the state.
        raw = keyed_stream(300)
        plan = FaultPlan(["poison:40", "kill:0:200", "kill:1:250"]).validate(2)
        poisoned = list(plan.apply_stream(raw, value_index=0))
        result, _ = self._serve(
            poisoned, tmp_path, with_oracle=False, on_error="quarantine",
            faults=plan,
        )
        clean = [e for i, e in enumerate(raw) if i not in plan.poison_offsets]
        oracle = reference_states(sum_scheme(), clean, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert len(chaos.read_dead_letters(tmp_path)) == 1

    def test_garbage_manifest_names_path_and_suggests_fresh(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{torn")
        with pytest.raises(ServeError, match="--fresh|fresh=True") as excinfo:
            StreamServer(
                sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
            ).start()
        assert "manifest.json" in str(excinfo.value)

    def test_old_manifest_version_is_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format": "repro/serve-manifest", "version": 1,
            "scheme": {}, "shards": 2,
        }))
        with pytest.raises(ServeError, match="version"):
            StreamServer(
                sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
            ).start()

    def test_config_validation(self, tmp_path):
        for kwargs in (
            {"keep_generations": 0},
            {"on_error": "explode"},
            {"liveness_timeout_s": 0},
        ):
            with pytest.raises(ValueError):
                StreamServer(
                    sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
                    **kwargs,
                )


class TestReseedSpec:
    def test_appends_seed_in_position(self):
        assert sources.reseed_spec("zipf-keys:4000:20", 9) == "zipf-keys:4000:20:9"

    def test_replaces_existing_seed(self):
        assert sources.reseed_spec("zipf-keys:4000:20:1:1.5", 9) == \
            "zipf-keys:4000:20:9:1.5"

    def test_pads_intermediate_args_with_defaults(self):
        assert sources.reseed_spec("sawtooth:100", 5) == "sawtooth:100:17:0:5"

    def test_seedless_specs_pass_through(self):
        assert sources.reseed_spec("counter:10", 9) == "counter:10"
        assert sources.reseed_spec("list:1,2,3", 9) == "list:1,2,3"

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            sources.reseed_spec("warp:10", 9)

    def test_unpaddable_default_rejected(self):
        # bids:N has its seed at index 1, reachable; but constant's repeated
        # value has no default, so a hypothetical seeded variant would fail.
        with pytest.raises(ValueError, match="no paddable default"):
            sources.reseed_spec("bids", 9)  # n=None default is unpaddable

    def test_reseeded_stream_differs_only_by_seed(self):
        a = list(sources.from_spec(sources.reseed_spec("zipf-keys:50:8", 1)))
        b = list(sources.from_spec(sources.reseed_spec("zipf-keys:50:8", 2)))
        assert a != b and len(a) == len(b) == 50


class TestChaosHarness:
    def test_normalize_fault_kinds(self):
        assert chaos.normalize_fault_kinds(["kill", "corrupt-checkpoint"]) == \
            ("kill", "corrupt")
        with pytest.raises(ValueError, match="unknown fault kind"):
            chaos.normalize_fault_kinds(["kill", "bogus"])
        with pytest.raises(ValueError, match="at least one fault kind"):
            chaos.normalize_fault_kinds([])

    def test_schedule_is_deterministic_and_valid(self):
        import random

        mk = lambda: chaos.schedule_faults(  # noqa: E731
            random.Random(42), ("kill", "stall", "corrupt", "torn", "poison"),
            shards=2, elements=1000, checkpoint_every=100,
        )
        first, second = mk(), mk()
        assert first == second
        plan = FaultPlan(first).validate(2)
        assert plan.kills_at(0) == []  # all kill offsets >= 1
        assert plan.poison_offsets and max(plan.poison_offsets) < 1000

    def test_run_chaos_same_seed_reproduces(self, tmp_path):
        kwargs = dict(
            trials=2, seed=8, shards=2, elements=400, checkpoint_every=64,
            batch_size=16, fault_kinds=("kill",), liveness_timeout_s=1.0,
        )
        a = chaos.run_chaos(workdir=tmp_path / "a", **kwargs)
        b = chaos.run_chaos(workdir=tmp_path / "b", **kwargs)
        strip = lambda r: [  # noqa: E731
            {k: v for k, v in t.items() if not k.endswith("_s")}
            for t in r["trials"]
        ]
        assert strip(a) == strip(b)
        assert a["ok"] and all(t["verdict"] == "match" for t in a["trials"])

    def test_run_chaos_quarantine_poison(self, tmp_path):
        report = chaos.run_chaos(
            trials=1, seed=3, shards=2, elements=400, checkpoint_every=64,
            batch_size=16, fault_kinds=("poison",), on_error="quarantine",
            workdir=tmp_path, liveness_timeout_s=1.0,
        )
        assert report["ok"]
        assert report["trials"][0]["dead_lettered"] >= 1

    def test_cli_chaos_smoke(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main([
            "chaos", "--trials", "1", "--seed", "8", "--shards", "2",
            "--elements", "400", "--checkpoint-every", "64",
            "--batch-size", "16", "--faults", "kill",
            "--liveness-timeout", "1.0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["format"] == chaos.CHAOS_FORMAT and report["ok"]
        assert "chaos: OK" in capsys.readouterr().out

    def test_cli_chaos_usage_errors(self, capsys):
        assert main(["chaos", "--faults", "bogus"]) == 2
        assert main(["chaos", "--trials", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestMetadata:
    def test_bench_metadata_shape(self):
        meta = bench_metadata()
        assert set(meta) == {"git_commit", "timestamp", "clock"}
        assert meta["timestamp"].endswith("Z")
        assert "monotonic" in meta["clock"]

    def test_git_commit_matches_rev_parse_in_checkout(self):
        expected = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if expected.returncode != 0:
            pytest.skip("not running inside a git checkout")
        assert git_commit() == expected.stdout.strip()

    def test_git_commit_unknown_outside_checkout(self, tmp_path):
        assert git_commit(cwd=str(tmp_path)) == "unknown"
