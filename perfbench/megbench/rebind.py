"""Temporary replacement of package functions and methods.

A function imported by name lives in every module that imported it
(`eig_sym` sits in `spectral`, `sideinfo`, `transductive`, `inductive`
and `props`), so replacing it in its defining module alone misses most
calls. `Rebinder.function` replaces it wherever a megmc module holds it,
and `restore` puts every original back.
"""

from __future__ import annotations

import sys


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "megmc" or name.startswith("megmc."))]


class Rebinder:
    """Records each replacement so that `restore` can undo all of them."""

    def __init__(self):
        self._saved = []

    def function(self, original, wrapper) -> int:
        """Replace original with wrapper in every megmc module; returns the count."""
        count = 0
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrapper)
                    count += 1
        if count == 0:
            raise LookupError(f"{original!r} is not bound in any megmc module")
        return count

    def method(self, cls, name: str, wrapper):
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
