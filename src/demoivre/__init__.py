"""Classical probability, recurrent series, annuities and conics toolkit."""

from . import binomlimit, conics, exactnum, games, lifeannuity, recurrence, series

__version__ = "0.1.0"
