"""Ceilings on the form work of one exact ``classify``.

Counters are patched onto ``InvariantForm.wedge``, ``exterior_d`` and
``lie.curvature_of`` while ``classify(family_a(1/2, 1/3))`` runs on an
algebra built beforehand.  The Chern curvature needs its full matrix, 27
wedges and 9 derivatives; the Bismut Ricci form needs only d(tr theta^b),
one more derivative.  A change that brings back the full Bismut curvature
or another redundant form product fails here without any timing.
"""

from collections import Counter
from fractions import Fraction

from btpgeo import forms, lie

CEILINGS = {"curvature_of": 1, "wedge": 27, "exterior_d": 10}


def test_classify_form_work_within_ceilings(monkeypatch):
    g = lie.family_a(Fraction(1, 2), Fraction(1, 3))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(forms.InvariantForm, "wedge",
                        counted("wedge", forms.InvariantForm.wedge))
    exterior_d = counted("exterior_d", forms.exterior_d)
    for module in (forms, lie):         # lie imports exterior_d by name
        monkeypatch.setattr(module, "exterior_d", exterior_d)
    monkeypatch.setattr(lie, "curvature_of", counted("curvature_of", lie.curvature_of))
    lie.classify(g)
    for name, ceiling in CEILINGS.items():
        assert calls[name] <= ceiling, calls
