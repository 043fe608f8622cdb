"""Per-object caches for the simulator's frozen dataclasses.

A frozen dataclass's generated ``__hash__`` builds and hashes a tuple of
every field on each call, and the simulator hashes some records on every
memo lookup (kernels) or keys process-wide memos on them (the Table 1
configs), and validates its configs in every component it builds.
:func:`once_per_object`, applied above ``@dataclass(frozen=True)``,
gives such a record

* the generated ``__hash__``'s value, computed on the first call and
  kept on the object (the object is frozen, so it cannot go stale);
* a ``validate()`` that runs the class's checks until they pass once,
  then returns at once; a refusal is never remembered, so every call on
  an inconsistent object raises the same error;
* a pickle state of the class's dataclass fields only, recorded when
  the class is decorated, so no per-object cache (these two, or one a
  class adds, such as ``GPUConfig.roofline``) crosses a process
  boundary (string hashes are salted per process) and a copy computes
  its own.

The caches live in the instance dict under names that are not fields,
so ``==``, ``repr``, :func:`dataclasses.fields` and
:func:`repro.exec.keys.fingerprint` never see them.
"""

from __future__ import annotations

import dataclasses
import functools


def once_per_object(cls):
    """Class decorator for a frozen dataclass (see the module docstring)."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    generated_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = generated_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    validate = cls.__dict__.get("validate")
    if validate is not None:
        @functools.wraps(validate)
        def validate_once(self) -> None:
            if "_valid" not in self.__dict__:
                validate(self)
                object.__setattr__(self, "_valid", True)

        cls.validate = validate_once

    def __getstate__(self) -> dict:
        state = self.__dict__
        return {name: state[name] for name in names}

    cls.__getstate__ = __getstate__
    return cls
