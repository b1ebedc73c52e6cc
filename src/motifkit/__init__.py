"""Toolkit for repeated-pattern discovery and evaluation in symbolic monophonic music.

The package covers the full experimental chain: ingesting symbolic music
(MIDI / CSV / pattern-interchange JSON), geometric pattern discovery
(SIA family), fusing several analyzers' outputs into a polling curve with
boundary extraction, boundary and recovery metrics, synthetic benchmark
generation with planted patterns, and a feature-based comparative
classification pipeline.

Import the modules by name (`from motifkit import discovery` or
`from motifkit.discovery import cosiatec`): the package itself re-exports
nothing, so `import motifkit` loads no module, and each import loads only
what it needs.  numpy is loaded by `analysis` and `classifiers` when they
are imported, and by `polling` on its first smoothing.  So of the CLI
commands, `poll`, `train-pp`, `features`, `classify` and `importance`
load numpy, and `synth`, `discover` and `eval-boundaries` do not.
"""

__version__ = "0.1.0"
