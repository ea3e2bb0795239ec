"""Molecular featurization and a fused image/fingerprint/key classifier."""

__version__ = "0.1.0"

from .dataset import FEATURIZER_VERSION
from .errors import MolcapError
from .fingerprints import Fingerprint, morgan_fingerprint
from .maccs import KeyVector, evaluate_keys, load_key_definitions
from .smiles import MolecularGraph, parse_smiles
from .substructure import match_subgraph, parse_query

__all__ = [
    "MolcapError",
    "MolecularGraph",
    "parse_smiles",
    "Fingerprint",
    "morgan_fingerprint",
    "KeyVector",
    "load_key_definitions",
    "evaluate_keys",
    "parse_query",
    "match_subgraph",
    "FEATURIZER_VERSION",
]
