"""Element symbols, atomic numbers, and standard valences.

Bare (unbracketed) atoms are restricted to the organic subset; bracket atoms
accept any symbol in the periodic table.  Valence lists drive implicit
hydrogen filling: an atom is filled up to the smallest listed valence that
covers its bond-order sum.
"""

from __future__ import annotations

SYMBOL_TO_Z: dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "Ce": 58, "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64,
    "Tb": 65, "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71,
    "Hf": 72, "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78,
    "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85,
    "Rn": 86, "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
    "Np": 93, "Pu": 94, "Am": 95, "Cm": 96, "Bk": 97, "Cf": 98, "Es": 99,
    "Fm": 100, "Md": 101, "No": 102, "Lr": 103, "Rf": 104, "Db": 105,
    "Sg": 106, "Bh": 107, "Hs": 108, "Mt": 109, "Ds": 110, "Rg": 111,
    "Cn": 112, "Nh": 113, "Fl": 114, "Mc": 115, "Lv": 116, "Ts": 117,
    "Og": 118,
}

Z_TO_SYMBOL: dict[int, str] = {z: s for s, z in SYMBOL_TO_Z.items()}

# Elements that may appear without brackets.
ORGANIC_SUBSET: frozenset[str] = frozenset(
    ["B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"]
)

# Lowercase symbols accepted as aromatic atoms.  ``se`` and ``as`` are only
# legal inside brackets; the single-letter ones may appear bare.
AROMATIC_SYMBOLS: dict[str, str] = {
    "b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S",
    "se": "Se", "as": "As",
}
BARE_AROMATIC: frozenset[str] = frozenset(["b", "c", "n", "o", "p", "s"])

# Standard valences used for implicit hydrogen filling, lowest first.
DEFAULT_VALENCES: dict[int, tuple[int, ...]] = {
    SYMBOL_TO_Z["B"]: (3,),
    SYMBOL_TO_Z["C"]: (4,),
    SYMBOL_TO_Z["N"]: (3,),
    SYMBOL_TO_Z["O"]: (2,),
    SYMBOL_TO_Z["P"]: (3, 5),
    SYMBOL_TO_Z["S"]: (2, 4, 6),
    SYMBOL_TO_Z["F"]: (1,),
    SYMBOL_TO_Z["Cl"]: (1,),
    SYMBOL_TO_Z["Br"]: (1,),
    SYMBOL_TO_Z["I"]: (1,),
}
