"""The one Hypothesis profile every property runs under.

Runs are reproducible (``derandomize``) and untimed (no ``deadline``); the explain
phase is left out, because on a failing engine property it adds tens of seconds
of extra runs to report what the shrunk example already shows. Each ``@settings``
keeps only the ``max_examples`` it needs; one property whose failures took minutes
to shrink also leaves out the shrink phase.
"""

from hypothesis import Phase, settings

settings.register_profile("meshsim", derandomize=True, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("meshsim")
