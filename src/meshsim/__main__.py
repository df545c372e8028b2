"""``python -m meshsim``: the same command line as the ``meshsim`` script."""

from .cli import main

raise SystemExit(main())
