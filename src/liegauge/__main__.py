"""`python3 -m liegauge`: the same command line as `liegauge`."""

from .cli import main

raise SystemExit(main())
