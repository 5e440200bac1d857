"""Rule: one record of a run — frames go through ``repro.trajio``.

The same eight-field frame used to be declared twice (plus a list of
sample dicts), three observers and four ``Trajectory.save*/load*``
methods each picked a codec and a copy policy for themselves, and the
copies disagreed: truncated ``epot``/``time_fs`` in one XYZ path but
not the other, PTRJ bytes under an ``.xyz`` name, flush-time
velocities in every frame of a chunk.  ``repro.trajio`` now owns what
a frame is (``TrajFrame``) and how it reaches or leaves a file
(``open_writer`` / ``iter_frames``, codec by path suffix); this rule
keeps the twins from regrowing.

Under ``src/repro/``, outside ``src/repro/trajio/`` and
``src/repro/geometry/xyz.py`` (which implement the codecs):

* no direct ``TrajectoryWriter(...)`` / ``TrajectoryReader(...)``
  construction — that is a codec decision made outside the sink/source;
* no ``write_xyz(..., append=...)`` frame streaming and no f-string
  that hand-formats a ``step=`` / ``time_fs=`` frame comment;
* no ``@dataclass`` named ``*Frame`` — ``TrajFrame`` is the frame.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.engine import Finding, ModuleContext, Rule

CODEC_CLASSES = frozenset({"TrajectoryWriter", "TrajectoryReader"})
COMMENT_KEYS = ("step=", "time_fs=")


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


class SingleFrameSinkRule(Rule):
    id = "single-frame-sink"
    hint = ("write frames through repro.trajio.open_writer(path) (or "
            "md.TrajectoryObserver), read them with "
            "repro.trajio.iter_frames(src), and keep them as TrajFrame")
    description = ("outside trajio/ and geometry/xyz.py: no direct "
                   "TrajectoryWriter/Reader construction, no hand-rolled "
                   "XYZ frame streaming or step=/time_fs= comment, no "
                   "second *Frame dataclass")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src/repro") or \
                ctx.in_dir("src/repro/trajio", "src/repro/geometry/xyz.py"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name in CODEC_CLASSES:
                    yield self.finding(
                        ctx, node,
                        f"{name}(...) constructed outside repro.trajio — "
                        f"the codec is chosen by the one sink/source")
                elif name == "write_xyz" and any(
                        kw.arg == "append" for kw in node.keywords):
                    yield self.finding(
                        ctx, node,
                        "write_xyz(..., append=...) streams trajectory "
                        "frames around the one sink")
            elif isinstance(node, ast.JoinedStr):
                text = "".join(part.value for part in node.values
                               if isinstance(part, ast.Constant)
                               and isinstance(part.value, str))
                if any(key in text for key in COMMENT_KEYS):
                    yield self.finding(
                        ctx, node,
                        "hand-formatted step=/time_fs= frame comment — "
                        "geometry.xyz.frame_comment is the one formatter")
            elif isinstance(node, ast.ClassDef) and \
                    node.name.endswith("Frame") and _is_dataclass(node):
                yield self.finding(
                    ctx, node,
                    f"dataclass {node.name} is a second frame record "
                    f"beside repro.trajio.TrajFrame")
