'Exception hierarchy; every failure mode raised by the library lives here.'


class LatmeetError(Exception):
    'Base class for all library errors.'


class NotALatticeError(LatmeetError):
    'A relation is not a lattice order; carries the offending pair when known.'

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotDistributiveError(LatmeetError):
    'Operation requires a distributive lattice.'


class NotModularError(LatmeetError):
    'Operation requires a modular lattice.'


class BudgetExceededError(LatmeetError):
    'Requested computation exceeds the configured size/candidate budget.'


class RetryExhaustedError(LatmeetError):
    'Randomized search gave up after the retry cap.'


class EmptySetError(LatmeetError, ValueError):
    'An operation that needs a nonempty family received an empty one.'


class OutOfRangeError(LatmeetError, ValueError):
    'Numeric argument outside the defined domain.'


class AugmentationError(LatmeetError):
    'Augmentation step did not yield a lattice.'


class SizeUnreachableError(LatmeetError):
    'Random generation could not hit the requested lattice size.'
