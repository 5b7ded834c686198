"""Plain-text model files.

Grammar (one key per line, '#' starts a comment, blank lines ignored)::

    alphabet_size: <int>
    order: <int>
    kernel:
      <m floats>            one line per context, in context-code order
      ... (m**order lines)
    initial: <m**order floats>          optional; may continue on
      following indented lines until enough numbers are read

Kept out of ``model``, which every command compiles: without cached
bytecode, the commands peaked higher in RSS with this code inside it.
"""

from __future__ import annotations

from .model import MarkovModel


def write_model_file(model: MarkovModel, path) -> None:
    """Write the model in the plain-text format described in the README."""
    lines = [
        f"alphabet_size: {model.m}",
        f"order: {model.order}",
        "kernel:",
    ]
    for row in model.kernel:
        lines.append("  " + " ".join(format(v, ".17g") for v in row))
    lines.append("initial: " + " ".join(format(v, ".17g") for v in model.initial))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_model_file(path) -> MarkovModel:
    """Parse a plain-text model file; see ``write_model_file`` for the grammar."""
    with open(path) as fh:
        raw = [ln.split("#", 1)[0].rstrip() for ln in fh]
    lines = [ln for ln in raw if ln.strip()]
    fields: dict[str, object] = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key in ("alphabet_size", "order"):
            least = 2 if key == "alphabet_size" else 0
            if not rest.isdecimal() or int(rest) < least:
                raise ValueError(f"model file {key}: expected an integer >= {least}, got {rest!r}")
            fields[key] = int(rest)
            i += 1
        elif key in ("kernel", "initial"):
            if "alphabet_size" not in fields or "order" not in fields:
                raise ValueError(f"model file {key}: must follow alphabet_size and order")
            m, order = fields["alphabet_size"], fields["order"]
            # context codes are int64; an order past that fits no kernel
            if order >= 63 or m**order >= 2**63:
                raise ValueError(f"model file order: {m}**{order} contexts overflow int64 codes")
            needed = m**order
            i += 1
            if key == "kernel":
                rows = []
                for k in range(needed):
                    if i >= len(lines):
                        raise ValueError("kernel section is truncated")
                    rows.append([float(v) for v in lines[i].split()])
                    if len(rows[k]) != m:
                        raise ValueError(f"kernel row {k} has {len(rows[k])} entries, not {m}")
                    i += 1
                fields["kernel"] = rows
            else:
                values = [float(v) for v in rest.split()]
                while len(values) < needed and i < len(lines) and ":" not in lines[i]:
                    values.extend(float(v) for v in lines[i].split())
                    i += 1
                if len(values) != needed:
                    raise ValueError(
                        f"initial law has {len(values)} entries, expected {needed}"
                    )
                fields["initial"] = values
        else:
            raise ValueError(f"unknown model file key: {key!r}")
    if "kernel" not in fields:
        raise ValueError("model file lacks a kernel section")
    return MarkovModel(fields["kernel"], initial=fields.get("initial"))
