"""Tests for the ``repro.serve`` subsystem: hash ring, sharded server,
crash-restore differential, backpressure, resume, CLI, and the bench."""

import json

import pytest

from repro.cli import main
from repro.core.scheme import OnlineScheme
from repro.ir.dsl import add, mul
from repro.ir.nodes import OnlineProgram
from repro.runtime import sources
from repro.serve import (
    HashRing,
    ServeError,
    StreamServer,
    reference_states,
    stable_key_hash,
    states_match,
)


def sum_scheme() -> OnlineScheme:
    return OnlineScheme((0,), OnlineProgram(("s",), "x", (add("s", "x"),)))


def rate_scheme() -> OnlineScheme:
    return OnlineScheme(
        (0,), OnlineProgram(("s",), "x", (add("s", mul("x", "rate")),), ("rate",))
    )


def keyed_stream(n, keys=16, seed=3):
    return list(sources.zipf_keys(n, keys=keys, seed=seed))


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # BLAKE2b over repr: a fixed value, not PYTHONHASHSEED-salted.
        assert stable_key_hash(17) == 0x20398D138E4D7BB4

    def test_routing_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        for key in range(200):
            assert a.shard_for(key) == b.shard_for(key)

    def test_all_shards_receive_keys(self):
        ring = HashRing(4)
        owners = {ring.shard_for(k) for k in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_distribution_roughly_even(self):
        ring = HashRing(4, replicas=64)
        counts = {s: 0 for s in range(4)}
        for key in range(4000):
            counts[ring.shard_for(key)] += 1
        assert min(counts.values()) > 400  # perfectly even would be 1000

    def test_resize_only_remaps_removed_shards_keys(self):
        # The consistent-hashing contract: removing shard 3 moves ONLY the
        # keys shard 3 owned; everything else keeps its owner.
        ring = HashRing(4)
        before = {k: ring.shard_for(k) for k in range(1000)}
        ring.remove_shard(3)
        for key, owner in before.items():
            if owner != 3:
                assert ring.shard_for(key) == owner
            else:
                assert ring.shard_for(key) != 3

    def test_add_shard_only_steals_keys(self):
        ring = HashRing(3)
        before = {k: ring.shard_for(k) for k in range(1000)}
        ring.add_shard(3)
        moved = {k for k, owner in before.items() if ring.shard_for(k) != owner}
        for key in moved:
            assert ring.shard_for(key) == 3

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing([1, 1])
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)
        ring = HashRing(1)
        with pytest.raises(ValueError):
            ring.remove_shard(0)  # never remove the last shard


class TestServerDifferential:
    def test_clean_run_matches_single_process(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(600)
        with StreamServer(
            scheme, shards=3, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=100, batch_size=16, max_inflight=4,
        ) as server:
            server.push_many(elements)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert result.count == 600
        assert sum(result.shard_counts.values()) == 600
        assert result.restarts == 0

    def test_kill_restore_is_bit_identical(self, tmp_path):
        # The tentpole contract: SIGKILL a worker mid-stream; the restored
        # worker resumes from its checkpoint, the server replays the
        # non-durable suffix, and the final states are exactly the
        # single-process run's.
        scheme = sum_scheme()
        elements = keyed_stream(1200)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=100, batch_size=16, max_inflight=4,
        ) as server:
            for i, element in enumerate(elements):
                server.push(element)
                if i == 500:
                    server.kill_shard(0)
                if i == 900:
                    server.kill_shard(1)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert result.restarts == 2

    def test_kill_just_before_drain(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(400)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=50, batch_size=8, max_inflight=2,
        ) as server:
            server.push_many(elements)
            server.kill_shard(1)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert result.restarts >= 1

    def test_backpressure_with_tiny_inflight_window(self, tmp_path):
        # max_inflight=1 forces push() to block on every batch; the run
        # must still complete and stay exact.
        scheme = sum_scheme()
        elements = keyed_stream(300)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=1000, batch_size=4, max_inflight=1,
        ) as server:
            server.push_many(elements)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)

    def test_extra_params_reach_every_shard(self, tmp_path):
        scheme = rate_scheme()
        elements = keyed_stream(200)
        extra = {"rate": 3}
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            extra=extra, checkpoint_every=50, batch_size=8,
        ) as server:
            server.push_many(elements)
            result = server.drain()
        oracle = reference_states(
            scheme, elements, key_field=1, value_field=0, extra=extra
        )
        assert states_match(result, oracle)

    def test_latencies_recorded(self, tmp_path):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            batch_size=8,
        ) as server:
            server.push_many(keyed_stream(200))
            result = server.drain()
        assert result.latencies_s and all(t >= 0 for t in result.latencies_s)
        assert result.p99_latency_s() >= 0


class TestServerResume:
    def test_second_server_resumes_checkpoints(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(800)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=10, batch_size=8,
        ) as first:
            first.push_many(elements[:400])
            first.drain()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=10, batch_size=8,
        ) as second:
            second.push_many(elements[400:])
            result = second.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)

    def test_fresh_wipes_previous_deployment(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(200)
        for _ in range(2):  # second run must NOT resume the first's counts
            with StreamServer(
                scheme, shards=2, checkpoint_dir=tmp_path, key_field=1,
                value_field=0, fresh=True,
            ) as server:
                server.push_many(elements)
                result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
        ) as server:
            server.push_many(keyed_stream(50))
            server.drain()
        with pytest.raises(ServeError, match="2-shard"):
            StreamServer(
                scheme, shards=3, checkpoint_dir=tmp_path, key_field=1,
                value_field=0,
            ).start()

    def test_different_scheme_rejected(self, tmp_path):
        with StreamServer(
            sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
            value_field=0,
        ) as server:
            server.push_many(keyed_stream(50))
            server.drain()
        with pytest.raises(ServeError, match="different\\s+scheme"):
            StreamServer(
                rate_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
                value_field=0, extra={"rate": 1},
            ).start()

    def test_restart_budget_gives_up(self, tmp_path):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=1, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            batch_size=4, restart_budget=0,
        ) as server:
            server.push_many(keyed_stream(40))
            server.kill_shard(0)
            with pytest.raises(ServeError, match="restart budget"):
                server.drain()

    def test_config_validation(self, tmp_path):
        for kwargs in (
            {"shards": 0},
            {"batch_size": 0},
            {"max_inflight": 0},
            {"checkpoint_every": 0},
        ):
            with pytest.raises(ValueError):
                StreamServer(
                    sum_scheme(), checkpoint_dir=tmp_path, key_field=1,
                    **{"shards": 2, **kwargs},
                )


class TestServeCli:
    @pytest.fixture()
    def scheme_file(self, tmp_path):
        path = tmp_path / "sum.scheme.json"
        path.write_text(json.dumps(sum_scheme().to_dict()), encoding="utf-8")
        return str(path)

    def test_serve_verify(self, scheme_file, tmp_path, capsys):
        code = main([
            "serve", scheme_file, "--source", "zipf-keys:300:10:5",
            "--key-field", "1", "--value-field", "0", "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "50",
            "--batch-size", "16", "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out
        assert "consumed 300 elements" in out

    def test_serve_kill_shard_recovers(self, scheme_file, tmp_path, capsys):
        code = main([
            "serve", scheme_file, "--source", "zipf-keys:400:10:5",
            "--key-field", "1", "--value-field", "0", "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "50",
            "--batch-size", "8", "--kill-shard", "0:200", "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "killed shard 0" in out
        assert "1 restart(s)" in out
        assert "verify: OK" in out

    def test_serve_rejects_bad_kill_spec(self, scheme_file, tmp_path, capsys):
        assert main([
            "serve", scheme_file, "--source", "zipf-keys:10",
            "--key-field", "1", "--checkpoint-dir", str(tmp_path / "ck"),
            "--kill-shard", "9:5",
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_rejects_unbounded_source(self, scheme_file, tmp_path, capsys):
        assert main([
            "serve", scheme_file, "--source", "zipf-keys",
            "--key-field", "1", "--checkpoint-dir", str(tmp_path / "ck"),
        ]) == 2
        assert "--max-elements" in capsys.readouterr().err
