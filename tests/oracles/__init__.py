"""Reference models the tests check the simulator against.

* :mod:`oracles.chip` — a command-level NAND chip (PAGE READ, CACHE READ,
  SET FEATURE, RESET) that replays each policy's command sequence against
  the closed-form latencies of :mod:`repro.core.latency`.
* :mod:`oracles.bch` — a binary BCH codec, the evidence for the simulator's
  bounded-distance ECC capability rule.

Neither ships in ``src/``: no simulation, experiment or CLI path runs them.
"""
