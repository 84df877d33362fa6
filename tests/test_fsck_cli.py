"""Tests for PFS snapshots, the fsck tool, and the CLI."""

import pytest

from repro.cli import main
from repro.core import MLOCWriter, mloc_col, mloc_isa
from repro.datasets import gts_like
from repro.pfs import PFSCostModel, SimulatedPFS
from repro.tools.fsck import check_store


@pytest.fixture()
def sound_store():
    fs = SimulatedPFS()
    data = gts_like((128, 128), seed=5)
    cfg = mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)
    MLOCWriter(fs, "/s", cfg).write(data, variable="f")
    return fs


class TestSnapshots:
    def test_save_load_roundtrip(self, tmp_path, sound_store):
        fs = sound_store
        path = tmp_path / "snap.pfs"
        fs.save(path)
        restored = SimulatedPFS.load(path)
        assert restored.list_files() == fs.list_files()
        for name in fs.list_files():
            assert (
                restored.session().open(name).read_all()
                == fs.session().open(name).read_all()
            )
        assert restored.cost_model == fs.cost_model

    def test_load_is_cold(self, tmp_path, sound_store):
        fs = sound_store
        path = tmp_path / "snap.pfs"
        some_file = fs.list_files()[0]
        fs.session().open(some_file).read_all()  # warm the cache
        fs.save(path)
        restored = SimulatedPFS.load(path)
        s = restored.session()
        s.open(some_file).read_all()
        assert s.stats.bytes_read == restored.size(some_file)

    def test_cost_model_persisted(self, tmp_path):
        fs = SimulatedPFS(PFSCostModel(byte_scale=7.0))
        path = tmp_path / "s.pfs"
        fs.save(path)
        assert SimulatedPFS.load(path).cost_model.byte_scale == 7.0


class TestFsck:
    def test_sound_store_clean(self, sound_store):
        assert check_store(sound_store, "/s", "f") == []

    def test_sound_isa_store_clean(self):
        fs = SimulatedPFS()
        data = gts_like((64, 64), seed=1)
        cfg = mloc_isa(chunk_shape=(16, 16), n_bins=4, target_block_bytes=4096)
        MLOCWriter(fs, "/i", cfg).write(data, variable="f")
        assert check_store(fs, "/i", "f") == []

    def test_missing_variable(self, sound_store):
        issues = check_store(sound_store, "/s", "nope")
        assert len(issues) == 1 and "missing" in issues[0].message

    def test_corrupt_metadata(self, sound_store):
        sound_store.write_file("/s/f/meta", b"garbage")
        issues = check_store(sound_store, "/s", "f")
        assert any("unreadable" in i.message for i in issues)

    def test_truncated_data_file(self, sound_store):
        fs = sound_store
        raw = fs.session().open("/s/f/bin0003.data").read_all()
        fs.write_file("/s/f/bin0003.data", raw[: len(raw) // 2])
        issues = check_store(fs, "/s", "f")
        assert any("bin 0003" in i.location for i in issues)
        assert any(i.severity == "error" for i in issues)

    def test_flipped_bytes_detected(self, sound_store):
        fs = sound_store
        raw = bytearray(fs.session().open("/s/f/bin0002.index").read_all())
        raw[len(raw) // 2] ^= 0xFF
        fs.write_file("/s/f/bin0002.index", bytes(raw))
        issues = check_store(fs, "/s", "f")
        assert issues  # zlib CRC or coverage must catch it

    def test_missing_subfile(self, sound_store):
        sound_store.delete("/s/f/bin0001.data")
        issues = check_store(sound_store, "/s", "f")
        assert any("subfile missing" in i.message for i in issues)


class TestCLI:
    def test_demo_info_query_roundtrip(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        assert main(["demo", snap, "--size", "128", "--bins", "8"]) == 0
        assert main(["info", snap]) == 0
        out = capsys.readouterr().out
        assert "/demo/potential" in out

        assert main([
            "query", snap, "--root", "/demo", "--variable", "potential",
            "--region", "0:64,0:64", "--output", "values", "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "4096 results" in out

    def test_query_with_value_constraint(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "query", snap, "--root", "/demo", "--variable", "potential",
            "--vmin", "4.0", "--output", "positions",
        ]) == 0
        assert "results" in capsys.readouterr().out

    def test_query_aggregate(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "query", snap, "--root", "/demo", "--variable", "potential",
            "--region", "0:128,0:128", "--aggregate", "mean",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean =" in out

    def test_fsck_clean_and_corrupt(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        assert main(["fsck", snap, "--root", "/demo", "--variable", "potential"]) == 0
        capsys.readouterr()

        fs = SimulatedPFS.load(snap)
        fs.delete("/demo/potential/bin0001.data")
        fs.save(snap)
        assert main(["fsck", snap, "--root", "/demo", "--variable", "potential"]) == 1
        assert "issue(s) found" in capsys.readouterr().out

    def test_fsck_dataset_mode(self, tmp_path, capsys):
        from repro.core import MLOCDataset, mloc_col
        from repro.datasets import gts_like

        snap = str(tmp_path / "campaign.pfs")
        fs = SimulatedPFS()
        ds = MLOCDataset(
            fs, "/camp", mloc_col(chunk_shape=(16, 16), n_bins=8), n_ranks=4
        )
        for t in range(2):
            ds.append(gts_like((64, 64), seed=t), "temp", t)
        fs.save(snap)
        assert main(["fsck", snap, "--root", "/camp", "--dataset"]) == 0
        assert "OK" in capsys.readouterr().out

        # An orphaned member directory turns the check red.
        MLOCWriter(fs, "/camp", ds.config).write(
            gts_like((64, 64), seed=9), variable="temp@000009"
        )
        fs.save(snap)
        assert main(["fsck", snap, "--root", "/camp", "--dataset"]) == 1
        out = capsys.readouterr().out
        assert "orphaned-member" in out

    def test_fsck_requires_variable_or_dataset(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        SimulatedPFS().save(snap)
        assert main(["fsck", snap, "--root", "/demo"]) == 2
        assert "--variable" in capsys.readouterr().out

    def test_info_empty_snapshot(self, tmp_path, capsys):
        snap = str(tmp_path / "empty.pfs")
        SimulatedPFS().save(snap)
        assert main(["info", snap]) == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["query"], ["batch", "--spec", "vmin=4.0"], ["refine"], ["stats"],
            ["serve-replay"], ["index", "stats"], ["relayout", "--target-root", "/x"],
        ],
        ids=lambda command: command[0],
    )  # fmt: skip
    def test_a_store_that_does_not_exist_is_one_error_line(
        self, tmp_path, capsys, command
    ):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "64", "--bins", "4"])
        capsys.readouterr()
        flags = ["--root", "/demo/", "--variable", "nope"]
        assert main([*command, snap, *flags]) == 2
        assert capsys.readouterr().out == "error: no store at /demo/nope\n"


#: ``serve-replay`` stdout over ``demo --size 64 --bins 4``, per extra
#: flag set.  The first three were captured before the replay drivers
#: became one loop; the last input used to retry an unadmittable
#: closed-loop request forever and now reports its drops.
SERVE_REPLAY_OUTPUT = {
    "open": (
        ["--mode", "open"],
        "open-loop replay: 12 requests from 4 tenant(s), 4 round(s), "
        "makespan 0.1533 s simulated\n"
        "latency: p50 0.0239 s, p99 0.0359 s, mean 0.0256 s\n"
        "fetch-merge: 128 blocks decoded for 719 block requests, "
        "dedup rate 82.2%, 28335 bytes read\n",
    ),
    "closed": (
        ["--mode", "closed"],
        "closed-loop replay: 12 requests from 4 tenant(s), 3 round(s), "
        "makespan 0.0546 s simulated\n"
        "latency: p50 0.0182 s, p99 0.0183 s, mean 0.0182 s\n"
        "fetch-merge: 96 blocks decoded for 719 block requests, "
        "dedup rate 86.6%, 28335 bytes read\n",
    ),
    "open-unadmittable": (
        ["--mode", "open", "--max-pending-mb", "0.002"],
        "open-loop replay: 0 requests from 4 tenant(s), 0 round(s), "
        "makespan 0.1351 s simulated\n"
        "latency: p50 0.0000 s, p99 0.0000 s, mean 0.0000 s\n"
        "fetch-merge: 0 blocks decoded for 0 block requests, "
        "dedup rate 0.0%, 0 bytes read\n"
        "admission: 12 rejection(s) retried, 12 request(s) dropped\n",
    ),
    "closed-unadmittable": (
        ["--mode", "closed", "--max-pending-mb", "0.005", "--tenants", "3",
         "--queries", "5", "--seed", "4"],
        "closed-loop replay: 12 requests from 3 tenant(s), 12 round(s), "
        "makespan 0.2175 s simulated\n"
        "latency: p50 0.0181 s, p99 0.1673 s, mean 0.0393 s\n"
        "fetch-merge: 384 blocks decoded for 768 block requests, "
        "dedup rate 50.0%, 28335 bytes read\n"
        "admission: 16 rejection(s) retried, 3 request(s) dropped\n",
    ),
}  # fmt: skip


@pytest.mark.parametrize("case", sorted(SERVE_REPLAY_OUTPUT))
def test_serve_replay_prints_its_pinned_report(tmp_path, capsys, case):
    snap = str(tmp_path / "demo.pfs")
    main(["demo", snap, "--size", "64", "--bins", "4"])
    capsys.readouterr()
    flags, expected = SERVE_REPLAY_OUTPUT[case]
    assert main([
        "serve-replay", snap, "--root", "/demo", "--variable", "potential",
        "--tenants", "4", "--queries", "3", *flags,
    ]) == 0  # fmt: skip
    assert capsys.readouterr().out == expected


class TestCLIRefineAndStats:
    def test_refine_progressive_session(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "refine", snap, "--root", "/demo", "--variable", "potential",
            "--vmin", "4.0", "--levels", "2,4,7",
        ]) == 0
        out = capsys.readouterr().out
        assert "level 2:" in out and "level 4:" in out and "level 7:" in out
        assert "2 refine step(s)" in out
        assert "raw bytes reused" in out

    def test_query_tol_prints_accuracy_line(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "query", snap, "--root", "/demo", "--variable", "potential",
            "--vmin", "4.0", "--tol", "1e-3",
        ]) == 0
        out = capsys.readouterr().out
        assert "tol: target 0.001 (max_rel) met" in out
        assert "provable bound" in out
        assert "raw bytes saved" in out

    def test_refine_tol_drives_progressive_ladder(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "refine", snap, "--root", "/demo", "--variable", "potential",
            "--vmin", "4.0", "--tol", "1e-4",
        ]) == 0
        out = capsys.readouterr().out
        assert "step at level" in out
        assert "tol: target 0.0001 (max_rel) met" in out

    def test_refine_sharded_session(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "refine", snap, "--root", "/demo", "--variable", "potential",
            "--vmin", "4.0", "--levels", "2,7", "--shards", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "level 2:" in out and "level 7:" in out

    def test_refine_rejects_bad_levels(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "refine", snap, "--root", "/demo", "--variable", "potential",
            "--levels", "4,2",
        ]) == 2
        assert "ascending" in capsys.readouterr().out

    def test_stats_reports_open_state(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "stats", snap, "--root", "/demo", "--variable", "potential",
            "--plan-cache", "8", "--cache-mb", "4",
            "--spec", "vmin=4.0", "--spec", "vmin=4.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan cache: 1 hits, 1 misses" in out
        assert "block cache:" in out
        assert "quarantine: empty" in out

    def test_stats_without_caches(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "stats", snap, "--root", "/demo", "--variable", "potential",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan cache: disabled" in out
        assert "block cache: disabled" in out


class TestCLIRelayout:
    def test_relayout_roundtrip(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        capsys.readouterr()
        assert main([
            "relayout", snap, "--root", "/demo", "--variable", "potential",
            "--target-root", "/demo-vsm", "--order", "VSM",
        ]) == 0
        out = capsys.readouterr().out
        assert "migrated" in out and "(VSM)" in out
        # The migrated store is sound and queryable.
        assert main(["fsck", snap, "--root", "/demo-vsm", "--variable", "potential"]) == 0
        capsys.readouterr()
        assert main([
            "query", snap, "--root", "/demo-vsm", "--variable", "potential",
            "--region", "0:32,0:32",
        ]) == 0
        assert "1024 results" in capsys.readouterr().out

    def test_relayout_rebinning(self, tmp_path, capsys):
        snap = str(tmp_path / "demo.pfs")
        main(["demo", snap, "--size", "128", "--bins", "8"])
        assert main([
            "relayout", snap, "--root", "/demo", "--variable", "potential",
            "--target-root", "/demo-16", "--order", "VMS", "--bins", "16",
        ]) == 0
        fs = SimulatedPFS.load(snap)
        from repro.core import MLOCStore

        migrated = MLOCStore.open(fs, "/demo-16", "potential")
        assert migrated.meta.config.n_bins == 16


class TestFsckCRC:
    def test_raw_plane_corruption_caught_by_crc(self, sound_store):
        """Low-mantissa planes are stored raw (no codec checksum); the
        per-block CRC32 in the block table must catch bit rot there."""
        fs = sound_store
        raw = bytearray(fs.session().open("/s/f/bin0004.data").read_all())
        raw[-10] ^= 0xFF  # tail of the file = raw mantissa planes
        fs.write_file("/s/f/bin0004.data", bytes(raw))
        issues = check_store(fs, "/s", "f")
        assert any("CRC mismatch" in i.message for i in issues)

    def test_index_crc(self, sound_store):
        fs = sound_store
        raw = bytearray(fs.session().open("/s/f/bin0000.index").read_all())
        raw[0] ^= 0x01
        fs.write_file("/s/f/bin0000.index", bytes(raw))
        issues = check_store(fs, "/s", "f")
        assert any(
            "CRC mismatch" in i.message or "decode failed" in i.message
            for i in issues
        )
