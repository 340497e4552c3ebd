'''Finite lattices, their join-endomorphisms, and the greatest
join-endomorphism below a given family.'''

from .endo import (Endofunction, count_join_endomorphisms,
                   enumerate_join_endomorphisms, format_endofunction,
                   is_join_endomorphism, parse_endofunction, pointwise_join,
                   pointwise_leq, pointwise_meet_many,
                   random_join_endomorphism)
from .errors import (AugmentationError, BudgetExceededError, EmptySetError,
                     LatmeetError, NotALatticeError, NotDistributiveError,
                     NotModularError, OutOfRangeError, RetryExhaustedError,
                     SizeUnreachableError)
from .glb import (MeetResult, a1_naive, brute_force_meet, dmeet, dmeet_plus,
                  gmeet, gmeet_plus, gmeet_plus_modular, meet_algorithms,
                  verify_01_relations_preserving)
from .lattice import (Lattice, LatticeBase, PowersetLattice, build, chain,
                      from_cover_relation, from_leq, m_n, powerset, product,
                      read_cover_file, write_cover_file)

__version__ = '0.1.0'

__all__ = [
    'AugmentationError', 'BudgetExceededError', 'EmptySetError',
    'Endofunction', 'Lattice', 'LatticeBase', 'LatmeetError', 'MeetResult',
    'NotALatticeError', 'NotDistributiveError', 'NotModularError',
    'OutOfRangeError', 'PowersetLattice',
    'RetryExhaustedError', 'SizeUnreachableError', 'a1_naive',
    'brute_force_meet', 'build', 'chain', 'count_join_endomorphisms', 'dmeet',
    'dmeet_plus', 'enumerate_join_endomorphisms', 'format_endofunction',
    'from_cover_relation', 'from_leq', 'gmeet', 'gmeet_plus',
    'gmeet_plus_modular', 'is_join_endomorphism', 'm_n', 'meet_algorithms',
    'parse_endofunction', 'pointwise_join', 'pointwise_leq',
    'pointwise_meet_many', 'powerset', 'product', 'random_join_endomorphism',
    'read_cover_file', 'verify_01_relations_preserving', 'write_cover_file',
]
