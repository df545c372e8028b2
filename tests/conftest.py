"""The Hypothesis profiles the properties run under.

``meshsim``, the default, is reproducible (``derandomize``) and untimed (no
``deadline``); the explain phase is left out, because on a failing engine property
it adds tens of seconds of extra runs to report what the shrunk example already
shows. Each ``@settings`` keeps only the ``max_examples`` it needs; one property
whose failures took minutes to shrink also leaves out the shrink phase.

``meshsim-random`` is the same, but draws its examples from a seed, which
``--hypothesis-seed`` sets, and keeps no example database, so the seed alone says
what runs: ``pytest --hypothesis-profile=meshsim-random --hypothesis-seed=5``. A
profile named on the command line wins over the default loaded here, because the
plugin loads it after this file is imported.
"""

from hypothesis import Phase, settings

settings.register_profile("meshsim", derandomize=True, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.register_profile("meshsim-random", settings.get_profile("meshsim"),
                          derandomize=False, database=None)
settings.load_profile("meshsim")
