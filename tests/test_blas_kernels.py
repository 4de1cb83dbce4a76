"""The outputs have the same bits under every OpenBLAS kernel.

numpy's wheels ship OpenBLAS built with ``DYNAMIC_ARCH``, which picks a
kernel for the host at load time; ``OPENBLAS_CORETYPE`` forces one.  The
run path takes no sum through BLAS, so ``scripts/output_digests.py``
prints the same lines under the Nehalem kernel (no fused multiply-add),
the Haswell kernel (fused) and the host's own choice.  Each runs in a
child process of its own, since the kernel is picked once per process.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
# None leaves the variable unset: the kernel OpenBLAS picks for this host.
KERNELS = ("Nehalem", "Haswell", None)


def _numpy_blas() -> str:
    """The name of the BLAS numpy was built against, or "" if unknown."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # a numpy without the dict mode
        return ""
    return str(config.get("Build Dependencies", {}).get("blas", {}).get("name", ""))


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or "openblas" not in _numpy_blas().lower(),
    reason="OPENBLAS_CORETYPE picks x86-64 kernels of numpy's OpenBLAS",
)
def test_output_digests_agree_across_openblas_kernels():
    runs = []
    for kernel in KERNELS:
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        runs.append(subprocess.Popen(
            [sys.executable, str(ROOT / "scripts" / "output_digests.py"), "--seed", "1"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ))
    outputs = []
    for kernel, run in zip(KERNELS, runs):
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, (kernel, err)
        outputs.append(out)
    assert len(outputs[0].splitlines()) == 37
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
