"""Retrieval-augmented patient-trial matching at desk scale.

Subpackages are imported explicitly; nothing heavy happens at import time.
"""

__version__ = "0.2.0"
