import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "equivalence.py"


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "compare", str(a),
                           str(b)], capture_output=True, text=True)


def test_compare_exits_1_unless_every_array_is_bit_identical(tmp_path):
    arrays = {"loss": np.array(1.5), "grad/w": np.arange(6.0).reshape(2, 3)}
    same, flipped, other = (tmp_path / f"{n}.npz"
                            for n in ("same", "flipped", "other"))
    np.savez(same, **arrays)
    changed = arrays["grad/w"].copy()
    changed[1, 2] = np.nextafter(changed[1, 2], np.inf)
    np.savez(flipped, **(arrays | {"grad/w": changed}))
    np.savez(other, loss=arrays["loss"], **{"grad/v": arrays["grad/w"]})

    out = compare(same, same)
    assert out.returncode == 0, out.stdout
    assert "not bit-identical: 0" in out.stdout

    out = compare(same, flipped)
    assert out.returncode == 1, out.stdout
    assert "arrays: 2" in out.stdout
    assert "not bit-identical: 1" in out.stdout
    assert "(grad/w)" in out.stdout

    out = compare(same, other)
    assert out.returncode == 1, out.stdout
    assert "different arrays" in out.stdout


def test_compare_summarizes_each_top_level_group(tmp_path):
    """One line per top-level group of array names: its arrays, how many
    of them are not bit-identical and its largest relative difference."""
    arrays = {"data/pairs": np.arange(4), "data/splits": np.zeros(4),
              "float64/gat/loss": np.array(2.0),
              "float64/gat/grad/w": np.ones(3)}
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **arrays)
    np.savez(b, **(arrays | {"float64/gat/grad/w": np.array([1.0, 1.0,
                                                            1.0 + 1e-12])}))
    out = compare(a, b)
    assert out.returncode == 1, out.stdout
    lines = out.stdout.splitlines()
    assert ("data/: 2 arrays, 0 not bit-identical, "
            "largest relative difference 0") in lines
    assert ("float64/: 2 arrays, 1 not bit-identical, "
            "largest relative difference 1e-12") in lines
