"""Rank-aware relational algebra over totally ordered score chains.

Tables assign scores with purely comparative meaning to tuples; every
operation aggregates by minimum (with maximum, the chain implication, and
its dual filling the roles of disjunction, implication, and difference), so
query results are invariant under order-preserving re-scalings of the
inputs: transform the scores and every result keeps its tuple order.
"""

from .algebra import (
    difference,
    divide,
    intersection,
    natural_join,
    product_join,
    project,
    rename,
    residuum_tables,
    restrict,
    semijoin,
    similarity,
    subsethood,
    union_tables,
)
from .chain import (
    RATIONAL,
    Score,
    ScoreChain,
    abjunction,
    biresiduum,
    join_sup,
    meet,
    negation,
    residuum,
    symbolic_chain,
)
from .catalog import Catalog
from .conditions import ExprCondition, TableCondition
from .errors import RankrelError
from .maps import (
    AnalyticMap,
    GraphMap,
    IdentityMap,
    PiecewiseConstantMap,
    canonical_map,
    compose_table,
    extend_piecewise,
    witness_isomorphism,
)
from .ordinal import (
    ordinally_equivalent,
    ordinally_included,
    rank_signature,
    upper_cone,
)
from .table import (
    DEC,
    INT,
    STR,
    AttrType,
    RankedTable,
    Row,
    Scheme,
    from_classic,
    read_table_csv,
    to_classic,
    write_table_csv,
)

__version__ = "0.1.0"
