"""Timed, scoped plans: the one codec fault and mobility plans share.

:class:`~repro.faults.FaultPlan` (what breaks) and
:class:`~repro.radio.mobility.MobilityPlan` (what moves) round-trip
through canonical JSON (sorted keys, defaults omitted), so plan grids
are ordinary campaign parameters with stable seeds and cache keys.

Decoding is the one place plan input from outside the program is
checked: :meth:`Plan.from_param` returns a plan or raises
:class:`~repro.errors.PlanError`, never another exception.  The spec
dataclasses' field annotations are the schema — a ``float`` field takes
a finite number (not a bool), an ``int`` field only an integer — and
unknown keys, a missing ``kind`` and non-object plans or specs are
rejected before the spec's own ``validate()`` runs.  :func:`decode`,
:func:`check_fields` and :func:`check` are that checker;
:mod:`repro.campaign` checks campaign input with them too.
"""

from __future__ import annotations

import json
import math
import reprlib
import types
import typing as _t
from dataclasses import MISSING, dataclass, fields
from functools import cache

from repro.errors import PlanError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = ["Spec", "Plan", "decode", "check_fields", "check"]


class Spec:
    """One plan entry: subclasses are frozen dataclasses whose fields
    start ``kind``, ``at`` and whose ``validate()`` holds the rules."""

    def to_dict(self) -> dict:
        """Plain-data form, defaults omitted so encodings stay canonical."""
        out: dict[str, object] = {"kind": self.kind,  # type: ignore[attr-defined]
                                  "at": self.at}  # type: ignore[attr-defined]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in out and value != f.default:
                out[f.name] = _plain(value)
        return out

    @classmethod
    def from_dict(cls, data: object) -> "Spec":
        """Decode one spec, checking every value against its field type."""
        return decode(cls, data, "spec")


@dataclass(frozen=True)
class Plan:
    """An ordered collection of specs for one run; subclasses name their
    spec type as :attr:`spec_type`."""

    name: str = ""
    specs: tuple = ()
    enabled: bool = True

    spec_type = Spec

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def is_active(self) -> bool:
        """Whether installing this plan changes anything."""
        return self.enabled and bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def check_scope(self, testbed: "Testbed") -> None:
        """Raise :class:`PlanError` if a spec names a node ``testbed``
        lacks — at install time, before anything is scheduled."""
        present = {node.id for node in testbed.nodes()}
        for index, spec in enumerate(self.specs):
            named = set(spec.nodes).union(getattr(spec, "link", None) or ())
            if not named <= present:
                raise PlanError(
                    f"specs[{index}] names node(s) {sorted(named - present)}"
                    f" the world lacks (it has {len(present)} nodes)")

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"name": self.name, "enabled": self.enabled,
                "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: object) -> "Plan":
        """Decode a plan object (see the module docstring for the rules)."""
        if not isinstance(data, _t.Mapping):
            raise PlanError(f"a plan must be an object, got {_show(data)}")
        unknown = set(data) - {"name", "enabled", "specs"}
        if unknown:
            raise PlanError(f"unknown plan keys {sorted(map(str, unknown))}")
        specs = data.get("specs", ())
        if not isinstance(specs, (list, tuple)):
            raise PlanError(f"specs must be a list, got {_show(specs)}")
        decoded = []
        for index, spec in enumerate(specs):
            try:
                decoded.append(cls.spec_type.from_dict(spec))
            except PlanError as exc:
                raise PlanError(f"specs[{index}]: {exc}") from None
        return cls(name=check(data.get("name", ""), str, "name"),
                   enabled=check(data.get("enabled", True), bool, "enabled"),
                   specs=tuple(decoded))

    def to_param(self) -> str:
        """Canonical JSON, the campaign-parameter form: equal plans
        encode to equal strings."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_param(cls, param: object) -> "Plan":
        """Decode a plan from its canonical JSON, a mapping, a plan
        (returned as-is), or ``None``/``"null"`` (an inert plan)."""
        if param is None or param == "null":
            return cls(enabled=False)
        if isinstance(param, cls):
            return param
        if isinstance(param, str):
            try:
                param = json.loads(param)
            except ValueError as exc:
                raise PlanError(f"plan is not JSON: {exc}") from None
        return cls.from_dict(param)


# -- the checked boundary ----------------------------------------------------

#: Echoes of bad input in error messages stay short.
_show = reprlib.repr


@cache
def _schema(cls: type) -> dict[str, object]:
    """Field name -> resolved annotation, for one dataclass."""
    hints = _t.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _plain(value: object) -> object:
    """Tuples as (nested) lists, the JSON shape of a spec field."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def decode(cls: type, data: object, what: str) -> _t.Any:
    """The dataclass ``cls`` built from the mapping ``data``: every key
    must name a field, every field without a default must be given, and
    each value must pass :func:`check` against its field's annotation.
    ``what`` names the object in error messages."""
    if not isinstance(data, _t.Mapping):
        raise PlanError(f"a {what} must be an object, got {_show(data)}")
    schema = _schema(cls)
    unknown = set(data) - set(schema)
    if unknown:
        raise PlanError(f"unknown {what} keys {sorted(map(str, unknown))}")
    for f in fields(cls):
        if (f.name not in data and f.default is MISSING
                and f.default_factory is MISSING):
            raise PlanError(f"a {what} needs a {f.name!r}")
    return cls(**{key: check(value, schema[key], key)
                  for key, value in data.items()})


def check_fields(obj: object) -> None:
    """Check every field of the dataclass instance ``obj`` against its
    annotation, keeping the checked values (a frozen ``obj`` too)."""
    for name, hint in _schema(type(obj)).items():
        object.__setattr__(obj, name, check(getattr(obj, name), hint, name))


def check(value: object, hint: object, path: str) -> _t.Any:
    """``value`` checked against the annotation ``hint``, or a
    :class:`PlanError` naming ``path``.  Lists become tuples where the
    hint is a tuple, so a decoded spec equals the one that was encoded;
    a ``dict[K, V]`` hint checks every key and value."""
    if _t.get_origin(hint) in (_t.Union, types.UnionType):  # ``X | None``
        if value is None:
            return None
        (hint,) = [arg for arg in _t.get_args(hint) if arg is not type(None)]
    if _t.get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise PlanError(f"{path}: expected an object, got {_show(value)}")
        key_hint, value_hint = _t.get_args(hint)
        return {check(key, key_hint, f"{path} key"):
                check(item, value_hint, f"{path}.{key}")
                for key, item in value.items()}
    if _t.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise PlanError(f"{path}: expected a list, got {_show(value)}")
        args = _t.get_args(hint)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise PlanError(f"{path}: expected {len(args)} values, "
                            f"got {len(value)}")
        return tuple(check(item, arg, f"{path}[{i}]")
                     for i, (item, arg) in enumerate(zip(value, args)))
    if hint in (int, float):
        try:  # an int too large for a float is not finite either
            ok = (isinstance(value, (int, hint)) and not isinstance(value, bool)
                  and math.isfinite(value))  # type: ignore[arg-type]
        except OverflowError:
            ok = False
        expected = "an integer" if hint is int else "a finite number"
    else:
        ok = isinstance(value, hint)  # type: ignore[arg-type]
        expected = f"a {hint.__name__}"  # type: ignore[attr-defined]
    if not ok:
        raise PlanError(f"{path}: expected {expected}, got {_show(value)}")
    return value
