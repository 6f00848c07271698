"""Run the command line front end as ``python -m graphtoric``."""

from .cli import main

raise SystemExit(main())
