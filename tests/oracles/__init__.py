"""Reference models the production layers are checked against.

Each layer of the library has one production path.  The slower, simpler
implementations those paths replaced live here, where the equivalence
suites (and the component benchmarks' baselines) compare against them:

* :mod:`tests.oracles.adhoc` — :class:`ReferenceAdHocNetwork`, the ad hoc
  wireless network with no spatial index, no incremental snapshot and no
  predicted link breaks.
* :mod:`tests.oracles.discovery` — the linear-scan answer to a know-how
  query, and "every submission on a freshly built community" as the
  reference for the shared knowledge plane.
"""
