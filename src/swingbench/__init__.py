"""Lead-sheet event codec and objective evaluation battery.

Submodules: :mod:`corpus` (data model and interchange format),
:mod:`chords` (symbol grammar and key templates), :mod:`tokenizer`
(event codec), :mod:`metrics` (entropy / grooving / chord irregularity),
:mod:`structure` (scape plots and structureness indicators),
:mod:`challenge` (continuation prediction and the n-gram baseline),
:mod:`midi` (standard MIDI writer), :mod:`synthetic` (test corpora),
and :mod:`cli` (the ``swingbench`` command).  Import names from these
submodules: the package itself imports none of them, so that each command
loads only the modules it runs.
"""

__version__ = "0.1.0"
