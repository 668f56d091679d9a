"""Every file ``reproduce_figures`` writes, pinned by SHA-256.

``data/figures.sha256`` (``sha256sum`` format, so ``sha256sum -c`` reads it
inside an output directory) was recorded before the mean-field run and the
RK4 loop were prepared once per run.  The outputs are ``%.12e`` CSVs and
manifests of float64 arithmetic, so a mismatch means some number changed.
"""
import hashlib
from pathlib import Path

from netspread.experiments import reproduce_figures

DIGESTS = Path(__file__).parent / "data" / "figures.sha256"


def test_reproduce_figures_bytes_are_pinned(tmp_path):
    reproduce_figures(tmp_path)
    expected = dict(
        reversed(line.split("  ", 1)) for line in DIGESTS.read_text().splitlines()
    )
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    assert sorted(written) == sorted(expected)
    assert [name for name in expected if written[name] != expected[name]] == []
