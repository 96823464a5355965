"""JSON file formats: instances, profiles, matchings, lotteries, rule tables.

Object names exist only in this layer; everything past it works on dense
integer ids.  Rational weights serialize as lowest-terms ``"p/q"`` strings,
never as floats, so reports are byte-stable and exact end to end.  Input is
validated here, where it enters the engine: unreadable files, schema
violations, infeasible matchings and incomplete or duplicated rule tables
all raise ``FormatError``.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from typing import Any

from .errors import FormatError
from .model import GENERAL, NULL_BOTTOM, Instance, Matching, is_feasible
from .preferences import Preference, Profile, profile_set, validate_profile
from .rules import (
    Lottery,
    RuleDescriptor,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    rule_label,
)

ObjectNames = tuple[str, ...]


def default_object_names(inst: Instance) -> ObjectNames:
    if inst.null_object is None:
        return tuple(f"o{i + 1}" for i in range(inst.k))
    return ("null",) + tuple(f"o{i}" for i in range(1, inst.k))


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}")


def load_json_file(path: str) -> Any:
    """Parse a JSON file; a CLI report (``--out``) is read as its ``"result"``."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if isinstance(data, dict) and "command" in data and "result" in data:
        return data["result"]
    return data


def _schema(what: str):
    """Report the KeyError, TypeError or ValueError of a malformed ``what`` as a FormatError."""

    def decorate(parse):
        @functools.wraps(parse)
        def wrapper(*args, **kwargs):
            try:
                return parse(*args, **kwargs)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc

        return wrapper

    return decorate


def write_text_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a FormatError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}")


def require_writable(path: str) -> None:
    """FormatError unless ``path`` can be written later: an existing file
    must open for appending, a new one's directory must exist and be
    writable.  No file is created or changed."""
    try:
        if os.path.exists(path):
            open(path, "a", encoding="utf-8").close()
        elif not os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK):
            raise PermissionError("its directory is missing or not writable")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}")


def dump_json_file(path: str, payload: Any) -> None:
    write_text_file(path, json.dumps(payload, indent=2) + "\n")


def instance_to_dict(inst: Instance, names: ObjectNames | None = None) -> dict:
    names = names or default_object_names(inst)
    return {
        "n": inst.n,
        "objects": [
            {"name": names[o], "capacity": inst.capacities[o]} for o in range(inst.k)
        ],
        "null_object": None if inst.null_object is None else names[inst.null_object],
        "domain": inst.domain,
    }


@_schema("instance")
def instance_from_dict(data: dict) -> tuple[Instance, ObjectNames]:
    """Parse an instance object; returns the instance and its object names."""
    if not isinstance(data, dict) or "objects" not in data or "n" not in data:
        raise FormatError("instance JSON needs 'n' and 'objects'")
    names = tuple(_name(obj["name"], "object name") for obj in data["objects"])
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate object names: {names}")
    sizes = [data["n"], *(obj["capacity"] for obj in data["objects"])]
    if any(type(size) is not int for size in sizes):  # int() would read 1.9 or true as 1
        raise FormatError(f"'n' and each capacity must be JSON integers, got {json.dumps(sizes)}")
    null_name = data.get("null_object")
    null_object = None
    if null_name is not None:
        if null_name not in names:
            raise FormatError(f"null_object {null_name!r} is not a listed object")
        if names[0] != null_name:
            raise FormatError("the null object must be listed first")
        null_object = 0
    domain = data.get("domain", GENERAL)
    if domain not in (GENERAL, NULL_BOTTOM):
        raise FormatError(f"unknown domain {domain!r}")
    return Instance(sizes[0], tuple(sizes[1:]), null_object, domain), names


def load_instance(path: str) -> tuple[Instance, ObjectNames]:
    """Load an instance file; combined {'instance': ..., 'profile': ...} files work too."""
    data = load_json_file(path)
    if isinstance(data, dict) and "instance" in data:
        data = data["instance"]
    return instance_from_dict(data)


def _name(value: Any, what: str) -> str:
    """``value`` if it is a JSON string; an object is named and referred to by strings only."""
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a JSON string, got {json.dumps(value)}")
    return value


def _object_id(name: Any, names: ObjectNames) -> int:
    _name(name, "object reference")
    try:
        return names.index(name)
    except ValueError:
        raise FormatError(f"unknown object name {name!r}; expected one of {list(names)}")


def preference_from_names(entry: list, names: ObjectNames) -> Preference:
    if not isinstance(entry, list):  # a string would be read as one name per character
        raise FormatError(f"a ranking must be a JSON list of names, got {json.dumps(entry)}")
    return tuple(_object_id(o, names) for o in entry)


def profile_from_dict(data: Any, inst: Instance, names: ObjectNames) -> Profile:
    if isinstance(data, dict) and "profile" in data:
        data = data["profile"]
    if not isinstance(data, list) or len(data) != inst.n:
        raise FormatError(f"profile JSON must list rankings for all {inst.n} agents")
    profile = tuple(preference_from_names(entry, names) for entry in data)
    validate_profile(inst, profile)
    return profile


def load_profile(path: str, inst: Instance, names: ObjectNames) -> Profile:
    return profile_from_dict(load_json_file(path), inst, names)


def matching_from_dict(data: Any, inst: Instance, names: ObjectNames) -> Matching:
    if isinstance(data, dict) and "matching" in data:
        data = data["matching"]
    if not isinstance(data, list) or len(data) != inst.n:
        raise FormatError(f"matching JSON must assign all {inst.n} agents")
    matching = tuple(_object_id(o, names) for o in data)
    if not is_feasible(inst, matching):
        raise FormatError(f"matching {data} exceeds the capacity of an object")
    return matching


def load_matching(path: str, inst: Instance, names: ObjectNames) -> Matching:
    return matching_from_dict(load_json_file(path), inst, names)


def lottery_to_list(lottery: Lottery, names: ObjectNames) -> list[dict]:
    return with_names(_weighted(lottery), names)


def _weighted(lottery: Lottery) -> list[dict]:
    return [{"matching": m, "weight": format_fraction(w)} for m, w in lottery.items()]


@_schema("lottery")
def lottery_from_list(data: list, inst: Instance, names: ObjectNames) -> Lottery:
    weights = {}
    for entry in data:
        matching = matching_from_dict(entry["matching"], inst, names)
        weights[matching] = weights.get(matching, Fraction(0)) + parse_fraction(entry["weight"])
    return Lottery.from_weights(weights)


#: Report keys whose values hold object ids, with the depth of their nesting:
#: 0 is one object, 1 a list of them (a matching or a ranking), 2 a list of
#: those (a profile, or a list of matchings), 3 a list of profiles.
_ID_DEPTH = {
    **dict.fromkeys(("truthful_allotment", "manipulated_allotment"), 0),
    **dict.fromkeys(("matching", "swapped", "outcome", "flipped_outcome", "new_outcome"), 1),
    **dict.fromkeys(("endowment", "misreport", "objects"), 1),
    **dict.fromkeys(("profile", "transformed", "misreports"), 2),
    **dict.fromkeys(("pushed_profile", "rearranged_profile", "survivors"), 2),
    "sequence": 3,
}


def with_names(report: Any, names: ObjectNames) -> Any:
    """Replace the object ids in an id-based report with names; agent ids stay numeric.

    Every value under a key of ``_ID_DEPTH`` is converted; every other dict
    and list is walked into, so nested witnesses and replays are named too.

    >>> with_names({"agents": [0, 1], "objects": [1, 0], "witness": None}, ("a", "b"))
    {'agents': [0, 1], 'objects': ['b', 'a'], 'witness': None}
    """
    return _named(report, None, names)


def _named(value: Any, depth: int | None, names: ObjectNames) -> Any:
    """``value`` with names for ids; ``depth`` is None where no id is expected yet."""
    if depth == 0:
        return names[value]
    if isinstance(value, dict):
        return {key: _named(item, _ID_DEPTH.get(key), names) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_named(item, None if depth is None else depth - 1, names) for item in value]
    return value


def rule_to_dict(
    inst: Instance, rule: RuleDescriptor, names: ObjectNames | None = None
) -> dict:
    """Serialize a tabulated rule as one record per profile."""
    names = names or default_object_names(inst)
    if not isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
        raise FormatError(f"only tabulated rules serialize to tables, got {rule_label(rule)}")
    deterministic = isinstance(rule, TabulatedDeterministicRule)
    entries = [
        {"profile": profile, "matching": value}
        if deterministic
        else {"profile": profile, "lottery": _weighted(value)}
        for profile, value in sorted(rule.table.items())
    ]
    return {
        "kind": "deterministic" if deterministic else "lottery",
        "instance": instance_to_dict(inst, names),
        "entries": with_names(entries, names),
    }


@_schema("rule table")
def rule_from_dict(data: dict) -> tuple[Instance, ObjectNames, RuleDescriptor]:
    """Load a tabulated rule; the table must be total over its domain, without duplicates."""
    inst, names = instance_from_dict(data["instance"])
    kind = data.get("kind")
    table: dict = {}
    for record in data["entries"]:
        profile = profile_from_dict(record["profile"], inst, names)
        if profile in table:
            raise FormatError(f"duplicate table entry for profile {record['profile']}")
        if kind == "deterministic":
            table[profile] = matching_from_dict(record["matching"], inst, names)
        elif kind == "lottery":
            table[profile] = lottery_from_list(record["lottery"], inst, names)
        else:
            raise FormatError(f"unknown rule kind {kind!r}")
    expected = profile_set(inst)
    if table.keys() != expected:
        raise FormatError(
            f"table covers {len(table)} profiles but the domain has {len(expected)}"
        )
    rule: RuleDescriptor
    if kind == "deterministic":
        rule = TabulatedDeterministicRule(table)
    else:
        rule = TabulatedLotteryRule(table)
    return inst, names, rule


def load_rule_file(path: str) -> tuple[Instance, ObjectNames, RuleDescriptor]:
    return rule_from_dict(load_json_file(path))
