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
