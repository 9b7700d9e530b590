"""Fault injection at the array rules that evaluate a paper formula over label arrays.

A rule takes mod and the fields of its labels as arrays that broadcast, and
answers with one array, or one label whose fields are arrays, indexed by the
labels first. inject() corrupts the answer for one label, wherever the rule is
evaluated: in a whole-table build and in the one-label view alike.
"""

import numpy as np


def inject(monkeypatch, module, rule, label, fix):
    """Patch module.<rule> so that fix edits, in place, its answer for the fields `label`.

    fix gets the answer as a list of writable arrays, one per field of the answer
    (a single array answer is a list of one). A rule without label fields is
    corrupted with label () and its whole answer.
    """
    original = getattr(module, rule)

    def faulty(mod, *fields):
        out = original(mod, *fields)
        parts = [np.array(p) for p in (out if isinstance(out, tuple) else (out,))]
        hit = np.ones(np.broadcast_shapes(*(np.shape(f) for f in fields)), dtype=bool)
        for f, value in zip(fields, label):
            hit &= np.asarray(f) == value
        for at in map(tuple, np.argwhere(hit)):
            answer = [np.array(p[at]) for p in parts]
            fix(answer)
            for p, a in zip(parts, answer):
                p[at] = a
        return type(out)(*parts) if isinstance(out, tuple) else parts[0]

    monkeypatch.setattr(module, rule, faulty)


def replace_with(value):
    """A fix that overwrites the answer with value, the same rule's answer for another label."""
    parts = value if isinstance(value, tuple) else (value,)

    def fix(answer):
        for a, v in zip(answer, parts):
            a[...] = v

    return fix
