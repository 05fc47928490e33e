"""CLI entry points (cmd/ parity: geojson2geobuf, geobuf2geojson,
read_geobuf CSV, bench, tile)."""

import io
import os
from contextlib import redirect_stdout

import pytest

from geobuf_ray import cli

REF = "/root/reference/test_data"
needs_ref = pytest.mark.skipif(
    not os.path.exists(f"{REF}/county.geojson"), reason="no reference data")


class _A:
    def __init__(self, **kw):
        self.__dict__.update(kw)


@needs_ref
def test_cli_pipeline_end_to_end(ray_session, tmp_path):
    bufdir = str(tmp_path / "buf")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.cmd_geojson2geobuf(_A(infile=f"{REF}/county.geojson",
                                       outdir=bufdir))
    assert rc == 0 and "3304 features" in out.getvalue()

    bufs = sorted(os.path.join(bufdir, f) for f in os.listdir(bufdir)
                  if f.endswith(".geobuf"))
    total_rows = 0
    per_file = []
    for buf in bufs:  # the converter shards into multiple stream files
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.cmd_read(_A(infile=buf))
        lines = out.getvalue().strip().splitlines()
        assert rc == 0
        assert lines[0].startswith('"Bounds","Type","Vertices"')
        per_file.append(len(lines) - 1)
        total_rows += len(lines) - 1
    assert total_rows == 3304
    buf = bufs[0]

    tiles_dir = str(tmp_path / "tiles")
    combined = str(tmp_path / "combined.geobuf")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.cmd_tile(_A(infile=buf, outdir=tiles_dir, zoom=6,
                             clip=True, combine=combined))
    assert rc == 0 and os.path.exists(combined)

    gj_dir = str(tmp_path / "gj")
    single = str(tmp_path / "back.geojson")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.cmd_geobuf2geojson(_A(infile=buf, outdir=gj_dir,
                                       single=single))
    assert rc == 0
    import json

    fc = json.load(open(single))
    assert len(fc["features"]) == per_file[0]  # converted the 1st shard


def test_cli_job_entrypoint(ray_session, tmp_path):
    """`cli job` (the ray-job-submit entrypoint) runs a registered
    pipeline, writes parquet + an atomic metrics record, and the
    metrics row counts match the parquet output."""
    import io
    import json
    import os
    from contextlib import redirect_stdout

    import pyarrow.dataset as pads

    from geobuf_ray import cli

    outdir = str(tmp_path / "jobout")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.cmd_job(_A(query="tile_counts",
                            sf_dir="/root/testdata/sf0.001",
                            out=outdir))
    assert rc == 0
    rec = json.load(open(os.path.join(outdir, "_metrics.json")))
    assert rec["query"] == "tile_counts" and rec["rows"] > 0
    assert pads.dataset(outdir).count_rows() == rec["rows"]
    # unknown query -> clean error, no crash
    rc = cli.cmd_job(_A(query="nope", sf_dir="/root/testdata/sf0.001",
                        out=str(tmp_path / "x")))
    assert rc == 2


def test_cli_tile_pyramid(ray_session, tmp_path):
    """--levels > 1 writes the multi-level Combine pyramid with a
    gob-indexed combined file per level."""
    from feature_corpus import write_geojson

    infile = str(tmp_path / "corpus.geojson")
    n = write_geojson(infile)
    bufdir = str(tmp_path / "buf")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.cmd_geojson2geobuf(_A(infile=infile, outdir=bufdir))
    assert rc == 0 and f"wrote {n} features" in out.getvalue()
    buf = sorted(os.path.join(bufdir, f) for f in os.listdir(bufdir)
                 if f.endswith(".geobuf"))[0]
    pyr = str(tmp_path / "pyr")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.cmd_tile(_A(infile=buf, outdir=pyr, zoom=4,
                             clip=False, combine=None, levels=3))
    assert rc == 0
    assert "pyramid (3 levels)" in out.getvalue()
    from geobuf_ray.io.geobuf_file import read_metadata

    for z in (4, 3, 2):
        combined = os.path.join(pyr, f"z{z}", "combined.geobuf")
        assert os.path.exists(combined), z
        meta, _ = read_metadata(combined)
        assert len(meta["Files"]) >= 1
