"""Session reports: a key = value preamble plus tab-separated rows.

The format is deliberately dull so diffing two runs answers "did
anything change".  Values are written with repr-stable formatting and
the file lands atomically (write to a sibling temp file, then rename),
so a crashed run never leaves a half-written report behind.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class SessionReport:
    scenario: str
    seed: int
    fields: Dict[str, object] = field(default_factory=dict)
    columns: List[str] = field(default_factory=list)
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add_row(self, **values) -> None:
        if not self.columns:
            self.columns = list(values)
        self.rows.append(values)


def _format_value(value) -> str:
    if isinstance(value, float):
        return "%.9g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_report(report: SessionReport) -> str:
    lines = ["scenario = %s" % report.scenario, "seed = %d" % report.seed]
    for key in report.fields:
        lines.append("%s = %s" % (key, _format_value(report.fields[key])))
    if report.columns:
        lines.append("")
        lines.append("\t".join(report.columns))
        for row in report.rows:
            lines.append("\t".join(_format_value(row.get(c, "")) for c in report.columns))
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a sibling temp file, then rename it over ``path``.

    ``mkstemp`` creates the file owner-only; it gets the mode ``open``
    would have given it (0666 less the umask) before the rename.
    """
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_report(report: SessionReport, path: str) -> None:
    """Render and atomically replace ``path``."""
    _write_atomic(path, render_report(report).encode("utf-8"))


def parse_report(text: str) -> SessionReport:
    """Inverse of render_report, for tools that post-process runs."""
    header: Dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].strip():
        key, _, value = lines[i].partition("=")
        header[key.strip()] = value.strip()
        i += 1
    report = SessionReport(
        scenario=header.pop("scenario", ""),
        seed=int(header.pop("seed", "0")),
        fields=dict(header),
    )
    while i < len(lines) and not lines[i].strip():
        i += 1
    if i < len(lines):
        report.columns = lines[i].split("\t")
        for line in lines[i + 1 :]:
            if not line.strip():
                continue
            report.rows.append(dict(zip(report.columns, line.split("\t"))))
    return report
