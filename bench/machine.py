"""Provenance of a benchmark result: machine, libraries and code version."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys

import numpy as np
import scipy

import uemb


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def _cache_size(level):
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if (_read(index + "/level") or "").strip() == str(level):
            kind = (_read(index + "/type") or "").strip()
            if kind in ("Unified", "Data"):
                return (_read(index + "/size") or "").strip() or None
    return None


def _blas():
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def _git_describe(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        res = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def provenance(root, uemb_threads):
    """Everything a reader needs to know which code ran where."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "uemb": getattr(uemb, "__version__", None),
        "uemb_file": uemb.__file__,
        "git_describe": _git_describe(root),
        "UEMB_THREADS": uemb_threads,
    }
