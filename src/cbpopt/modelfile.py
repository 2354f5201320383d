"""JSON model files and deterministic report serialization.

Model files carry either a branching model or a general rate model:

    {"kind": "cbp",
     "cbp": {"m": 1,
             "actions": [{"id": "a1", "b": {"0": 1.0, "2": 2.0}}],
             "admissible": {"1": ["a1", "a2"]},
             "tail": ["a1"]}}

    {"kind": "general",
     "general": {"states": [0, 1, "delta"],
                 "target": [0],
                 "cemetery": "delta",
                 "rates": {"1": {"a": {"0": 1.0, "delta": 3.0}}}}}

Unknown or duplicate fields are rejected.  Integer map keys are carried as
strings (JSON object keys always are) and resolved back on load.  Reports are
emitted by :func:`dump_json`, which writes floats with 17 significant digits
so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math

from .errors import ModelFileError, UsageError
from .model import (
    CbpModel,
    GeneralModel,
    validate_cbp_model,
    validate_general_model,
)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def dump_json(obj) -> str:
    """Serialize a report deterministically: insertion order kept, floats at
    17 significant digits, all map keys as strings."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key, value in obj.items():
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, value in enumerate(obj):
            if pos:
                out.append(",")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _no_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ModelFileError(f"duplicate key {key!r} in model file")
        seen.add(key)
    return dict(pairs)


def _require_mapping(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ModelFileError(f"{context} must be an object")
    return obj


def _only_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ModelFileError(f"unknown field(s) {sorted(unknown)} in {context}")


def _int_key(raw: str, context: str) -> int:
    """The integer a key spells canonically, so no two keys name one integer."""
    try:
        if str(int(raw)) == raw:
            return int(raw)
    except (TypeError, ValueError):
        pass
    raise ModelFileError(f"{context}: key {raw!r} is not an integer in canonical form")


def load_model(path) -> CbpModel | GeneralModel:
    """The model in the JSON file at ``path``.  A file that cannot be read
    or decoded is a :class:`ModelFileError`, as is invalid content."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_no_duplicate_keys)
    except OSError as exc:
        raise ModelFileError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"the model file is not valid UTF-8: {exc}") from None
    except RecursionError:
        raise ModelFileError("the model file nests too deeply to decode") from None
    return parse_model(doc)


def parse_model(doc) -> CbpModel | GeneralModel:
    doc = _require_mapping(doc, "the model file")
    kind = doc.get("kind")
    if kind == "cbp":
        _only_keys(doc, {"kind", "cbp"}, "the model file")
        return _parse_cbp(_require_mapping(doc.get("cbp"), '"cbp"'))
    if kind == "general":
        _only_keys(doc, {"kind", "general"}, "the model file")
        return _parse_general(_require_mapping(doc.get("general"), '"general"'))
    raise ModelFileError(f'model "kind" must be "cbp" or "general", got {kind!r}')


def _parse_cbp(body: dict) -> CbpModel:
    _only_keys(body, {"m", "actions", "admissible", "tail"}, '"cbp"')
    for field in ("m", "actions", "admissible", "tail"):
        if field not in body:
            raise ModelFileError(f'missing field "{field}" in "cbp"')
    if not isinstance(body["actions"], list):
        raise ModelFileError('"actions" must be a list')
    mechanisms: dict[str, dict[int, float]] = {}
    for entry in body["actions"]:
        entry = _require_mapping(entry, "action entry")
        _only_keys(entry, {"id", "b"}, "action entry")
        aid = entry.get("id")
        if not isinstance(aid, str) or not aid:
            raise ModelFileError(f"action id must be a nonempty string, got {aid!r}")
        if aid in mechanisms:
            raise ModelFileError(f"action {aid!r} is defined more than once")
        rates = _require_mapping(entry.get("b"), f'rates of action {aid!r}')
        mechanisms[aid] = {
            _int_key(k, f"action {aid!r} rates"): v for k, v in rates.items()
        }
    admissible_raw = _require_mapping(body["admissible"], '"admissible"')
    admissible = {
        _int_key(i, '"admissible"'): ids for i, ids in admissible_raw.items()
    }
    for i, ids in admissible.items():
        if not isinstance(ids, list):
            raise ModelFileError(f'"admissible" entry for state {i} must be a list')
    if not isinstance(body["tail"], list):
        raise ModelFileError('"tail" must be a list')
    return validate_cbp_model(body["m"], admissible, body["tail"], mechanisms)


def _parse_general(body: dict) -> GeneralModel:
    _only_keys(body, {"states", "target", "cemetery", "rates"}, '"general"')
    for field in ("states", "target", "rates"):
        if field not in body:
            raise ModelFileError(f'missing field "{field}" in "general"')
    states = body["states"]
    if not isinstance(states, list):
        raise ModelFileError('"states" must be a list')
    for s in states:
        if not isinstance(s, (int, str)) or isinstance(s, bool):
            raise ModelFileError(f"states must be integers or strings, got {s!r}")
    resolve: dict[str, object] = {}
    for s in states:
        key = str(s)
        if key in resolve:
            raise ModelFileError(f"states {resolve[key]!r} and {s!r} collide as {key!r}")
        resolve[key] = s

    def lookup(raw, context):
        key = str(raw)
        if key not in resolve:
            raise ModelFileError(f"{context}: unknown state {raw!r}")
        return resolve[key]

    if not isinstance(body["target"], list):
        raise ModelFileError('"target" must be a list')
    target = [lookup(s, '"target"') for s in body["target"]]
    cemetery = None
    if body.get("cemetery") is not None:
        cemetery = lookup(body["cemetery"], '"cemetery"')
    rows: dict[tuple[object, str], dict[object, float]] = {}
    for i_key, per_action in _require_mapping(body["rates"], '"rates"').items():
        i = lookup(i_key, '"rates"')
        for action, row in _require_mapping(per_action, f"rates of state {i_key}").items():
            if not isinstance(action, str) or not action:
                raise ModelFileError(f"action ids must be nonempty strings, got {action!r}")
            entries = _require_mapping(row, f"row ({i_key}, {action})")
            rows[(i, action)] = {
                lookup(j, f"row ({i_key}, {action})"): rate for j, rate in entries.items()
            }
    return validate_general_model(states, target, cemetery, rows)


def model_to_doc(model: CbpModel | GeneralModel) -> dict:
    """Inverse of :func:`parse_model` up to canonical ordering."""
    if isinstance(model, CbpModel):
        return {
            "kind": "cbp",
            "cbp": {
                "m": model.m,
                "actions": [
                    {
                        "id": aid,
                        "b": {str(k): rate for k, rate in mech.support.items()},
                    }
                    for aid, mech in sorted(model.mechanisms.items())
                ],
                "admissible": {
                    str(i): list(model.admissible[i - 1]) for i in range(1, model.m + 1)
                },
                "tail": list(model.tail_actions),
            },
        }
    doc: dict = {
        "states": list(model.states),
        "target": sorted(model.target, key=str),
    }
    if model.cemetery is not None:
        doc["cemetery"] = model.cemetery
    rates: dict = {}
    for (i, a), row in sorted(model.rows.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        rates.setdefault(str(i), {})[a] = {str(j): rate for j, rate in row.items()}
    doc["rates"] = rates
    return {"kind": "general", "general": doc}


def parse_policy_spec(spec: str) -> dict[int, str]:
    """Parse head overrides like ``"1:a2,2:a1"`` into a state -> action map.

    Only the syntax is checked here: states are canonical integers, each
    named once.  ``model.default_policy`` checks the states and actions
    against a model.
    """
    overrides: dict[int, str] = {}
    if not spec:
        return overrides
    for chunk in spec.split(","):
        parts = chunk.split(":")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise UsageError(f"bad policy chunk {chunk!r}; expected STATE:ACTION")
        try:
            state = _int_key(parts[0].strip(), "policy spec")
        except ModelFileError as exc:
            raise UsageError(str(exc)) from None
        if state in overrides:
            raise UsageError(f"state {state} is assigned twice in policy spec")
        overrides[state] = parts[1].strip()
    return overrides
