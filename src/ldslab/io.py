"""File formats: mixture/model JSON, trajectory JSONL, CSV/JSON reports.

All writes are atomic (temp file in the target directory, then rename).
Floating-point values are emitted with 17 significant digits, which
round-trips IEEE doubles exactly, so re-reading a file reproduces the
in-memory objects bit for bit.  JSON has no infinity or NaN: a report or
manifest writes a non-finite value as ``null`` in JSON and as ``inf``,
``-inf`` or ``nan`` in CSV.  Model and dataset files never hold one,
because their types reject non-finite entries.

Model/mixture file (UTF-8 JSON)::

    {"m": 2, "n": 2, "p": 2, "k": 2, "noise_scale": 1,
     "weights": [0.5, 0.5],
     "components": [{"a": [[...]], "b": [[...]], "c": [[...]], "d": [[...]]}, ...]}

``noise_scale`` is the standard deviation of x0, w[t] and z[t]; a file
without it has unit noise.

Dataset file (JSON Lines), one trajectory per line, 0-based time::

    {"label": 0, "u": [[...], ...], "y": [[...], ...]}

``label`` is null for unlabelled data.  Every line of one file holds a
trajectory of the same length and the same (p, m), and either every line
carries a label or none does.
"""
from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import DataError
from .lds import Dataset, LdsParams, MixtureSpec, all_finite, require_dataset, require_mixture
from .lds import Trajectory  # noqa: F401  (kept as io.Trajectory: perfbench wraps it)

__all__ = [
    "dumps_json",
    "atomic_write_text",
    "save_mixture",
    "load_mixture",
    "save_dataset",
    "load_dataset",
    "save_report",
]


def _parse_int(text: str):
    # %.17g writes the double -0.0 as "-0", which JSON reads as the int 0
    return -0.0 if text == "-0" else int(text)


# Reads every file written here back bit for bit, the sign of zero included.
_DECODER = json.JSONDecoder(parse_int=_parse_int)


def dumps_json(obj, indent: int = 0, _level: int = 0) -> str:
    """JSON text with floats at 17 significant digits.

    Supports the JSON subset used by this package (dict/list/str/num/
    bool/None plus numpy scalars and arrays).
    """
    pad = "\n" + " " * (indent * (_level + 1)) if indent else ""
    end = "\n" + " " * (indent * _level) if indent else ""
    sep = "," + (pad if indent else " ")
    if isinstance(obj, dict):
        items = sep.join(
            f"{json.dumps(str(key))}: {dumps_json(val, indent, _level + 1)}"
            for key, val in obj.items()
        )
        return "{" + pad + items + end + "}" if obj else "{}"
    if isinstance(obj, (list, tuple)):
        items = sep.join(dumps_json(val, indent, _level + 1) for val in obj)
        return "[" + pad + items + end + "]" if len(obj) else "[]"
    if isinstance(obj, np.ndarray):
        return dumps_json(obj.tolist(), indent, _level)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if np.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise DataError(f"cannot serialize object of type {type(obj)!r}")


@contextmanager
def _atomic_open(path: str):
    """Text handle on a temp file, renamed to ``path`` unless the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a temp file and rename."""
    with _atomic_open(path) as handle:
        handle.write(text)


def save_mixture(path: str, model: MixtureSpec) -> None:
    """Write a mixture (learned or not) in the model file format."""
    m, n, p = require_mixture(model).dims
    raw = {
        "m": m,
        "n": n,
        "p": p,
        "k": model.k,
        "noise_scale": model.noise_scale,
        "weights": list(model.weights),
        "components": [{"a": c.a, "b": c.b, "c": c.c, "d": c.d} for c in model.components],
    }
    atomic_write_text(path, dumps_json(raw, indent=2) + "\n")


def load_mixture(path: str) -> MixtureSpec:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = _DECODER.decode(text)
        components = tuple(
            LdsParams(a=c["a"], b=c["b"], c=c["c"], d=c["d"])
            for c in raw["components"]
        )
        weights = np.asarray(raw["weights"], dtype=float)
        noise_scale = float(raw.get("noise_scale", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed mixture file {path}: {exc}") from exc
    mix = MixtureSpec(components=components, weights=weights, noise_scale=noise_scale)
    actual = dict(zip("mnpk", (*mix.dims, mix.k)))
    declared = {key: raw[key] for key in actual if key in raw}
    if any(value != actual[key] for key, value in declared.items()):
        raise DataError(
            f"mixture file {path} declares {declared}, its matrices and weights give {actual}"
        )
    return mix


# Trajectories formatted per batch in save_dataset; bounds the text held at once.
# A batch's Python floats, lines and joined text (about 5 KB per trajectory
# at l = 18, m = p = 2) are the largest transient of ``ldslab generate``; with
# larger batches the peak RSS of a process that generates repeatedly depends
# on where malloc happens to place them.
_SAVE_BATCH = 1024


def save_dataset(path: str, dataset: Dataset) -> None:
    """Write one JSON line per trajectory, floats at 17 significant digits."""
    u, y, labels = require_dataset(dataset).u, dataset.y, dataset.labels
    if not (all_finite(u) and all_finite(y)):
        raise DataError("cannot serialize a dataset with non-finite values")
    (n_traj, length, p), m = u.shape, y.shape[2]
    rows = [",".join(["[" + ",".join(["%.17g"] * w) + "]"] * length) for w in (p, m)]
    line = '{"label": %s, "u": [' + rows[0] + '], "y": [' + rows[1] + "]}\n"
    with _atomic_open(path) as handle:
        for start in range(0, n_traj, _SAVE_BATCH):
            part = slice(start, start + _SAVE_BATCH)
            values = np.concatenate(
                [u[part].reshape(-1, length * p), y[part].reshape(-1, length * m)], axis=1
            )
            tags = ["null"] * len(values) if labels is None else labels[part].tolist()
            handle.write("".join(line % (tag, *row) for tag, row in zip(tags, values.tolist())))


def load_dataset(path: str) -> Dataset:
    """Read a dataset file into one Dataset.

    A malformed line, a label that is not a JSON integer, a trajectory
    whose shape differs from the first line's, or a mix of labelled and
    unlabelled lines raises DataError naming ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        n_traj = sum(1 for line in handle if line.strip())
        if not n_traj:
            raise DataError(f"dataset file {path} is empty")
        handle.seek(0)
        lines = ((lineno, line) for lineno, line in enumerate(handle, start=1) if line.strip())
        for row, (lineno, line) in enumerate(lines):
            try:
                raw = _DECODER.decode(line)
                u_row, y_row = np.asarray(raw["u"], dtype=float), np.asarray(raw["y"], dtype=float)
                label = raw.get("label")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed trajectory: {exc}") from exc
            if label is not None and type(label) is not int:  # not a float, bool or string
                raise DataError(f"{path}:{lineno}: label {label!r} is not a JSON integer")
            if row == 0:
                first, u, y = lineno, np.empty((n_traj, *u_row.shape)), np.empty((n_traj, *y_row.shape))
                labels = None if label is None else np.empty(n_traj, dtype=int)
            if u_row.shape != u.shape[1:] or y_row.shape != y.shape[1:]:
                raise DataError(
                    f"{path}:{lineno}: u {u_row.shape} and y {y_row.shape} differ from line "
                    f"{first}; every trajectory of a dataset has the same length and (p, m)"
                )
            if (label is None) != (labels is None):
                raise DataError(f"{path}:{lineno}: labelled and unlabelled lines are mixed "
                                f"(see line {first}); give labels on every line or on none")
            u[row], y[row] = u_row, y_row
            if labels is not None:
                labels[row] = label
    u.setflags(write=False)
    y.setflags(write=False)
    try:
        return Dataset(u=u, y=y, labels=labels)
    except DataError as exc:
        raise DataError(f"dataset file {path}: {exc}") from exc


def save_report(path_base: str, columns: dict) -> None:
    """Write a CSV and its JSON mirror (path_base + '.csv' / '.json').

    ``columns`` maps each header, in order, to a column; every column has
    one entry per row.
    """
    rows = list(zip(*(np.asarray(column).tolist() for column in columns.values())))
    csv_lines = [",".join(columns)] + [
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    atomic_write_text(path_base + ".csv", "\n".join(csv_lines) + "\n")
    mirror = [dict(zip(columns, row)) for row in rows]
    atomic_write_text(path_base + ".json", dumps_json(mirror, indent=2) + "\n")
