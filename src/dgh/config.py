"""The budgets, each defined once."""

from __future__ import annotations

#: ceiling on the cubes of one truncated nerve, summed over its levels
DEFAULT_MAX_CUBES = 10**6
#: ceiling on the maps of one enumeration
DEFAULT_MAX_MAPS = 10**5
#: ceiling on the base maps of each horn's one-horn check in
#: `coverings.check_unique_lifting_all_horns`; on a 1-covering they are
#: counted, never listed
MAX_HORN_BASE_MAPS = 10**7
#: ceiling on one side of a boundary matrix (arbitrary-precision entries
#: make runtime the only concern)
MAX_MATRIX_DIM = 20000
