"""Numerical laboratory for plain, reflected and doubly reflected backward
equations on discrete Brownian models, their penalization schemes, and the
stopping games they value."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    AdaptedProcess,
    Lattice,
    StoppingRule,
    TerminalPayoff,
    build_lattice,
    conditional_expectation,
    conditional_expectation_chain,
    martingale_increment,
)
from .generator import (  # noqa: F401
    Generator,
    check_hypotheses,
    negate_reflect,
    registry_generator,
    stop_generator,
)
from .bsde import (  # noqa: F401
    Solution,
    g_evaluate,
    martingale_represent,
    solve_bsde,
    verify_evaluation_axioms,
)
from .rbsde import (  # noqa: F401
    first_hitting,
    penalization_run,
    solve_rbsde,
    verify_snell,
)
from .drbsde import (  # noqa: F401
    DynkinGame,
    cross_validate,
    double_penalization,
    pasting_construct,
    solve_drbsde,
)
from .dynkin import (  # noqa: F401
    enumerate_stopping_rules,
    game_value_oracle,
    payoff_R,
    strategy_value,
    verify_saddle,
)
from .mc import (  # noqa: F401
    McProblem,
    RegressionBasis,
    simulate_paths,
    solve_mc,
)
