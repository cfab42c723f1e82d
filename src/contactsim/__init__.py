"""contactsim: dissipative mechanical systems with impacts.

Smooth action-dependent (contact) Lagrangian and Hamiltonian flows,
elastic impact resolution from tangential-momentum and energy
continuity, hybrid flow/guard/reset simulation, built-in dissipative
billiards with closed-form oracles, and invariant monitors.
"""

from .billiards import (
    BilliardSpec,
    Circle,
    Ellipse,
    angular_momentum,
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    free_particle_closed_form,
    make_circular_billiard,
    make_elliptical_billiard,
)
from .checks import (
    CheckReport,
    check_dissipated_quantity,
    check_energy_decay,
    check_impact_conditions,
)
from .core import (
    ContactStateH,
    ContactStateL,
    DerivativeBundle,
    HamiltonianSpec,
    NaturalForm,
    SystemSpec,
    finite_difference_partials,
    hamiltonian_from_lagrangian,
    hamiltonian_rhs,
    herglotz_rhs,
    lagrangian_energy,
    legendre_forward,
    legendre_inverse,
    natural_lagrangian_system,
)
from .errors import (
    ConfigError,
    ContactSimError,
    ConvergedToIdentity,
    DegenerateNormal,
    DimensionMismatch,
    ExteriorState,
    GrazingContact,
    MaxStepsExceeded,
    NoConvergence,
    NonFiniteValue,
    NoSignChange,
    SingularHessian,
    SingularMassMatrix,
    StepSizeUnderflow,
    TimeOutOfRange,
)
from .hybrid import (
    COMPLETED,
    EVENT_BUDGET_EXHAUSTED,
    GRAZING_STOP,
    ZENO_SUSPECTED,
    HybridSystem,
    HybridTrajectory,
    SampleTable,
    sample,
    simulate,
)
from .impact import (
    ImpactEvent,
    SwitchingSurface,
    impact_residuals,
    resolve_impact_hamiltonian,
    resolve_impact_natural,
    resolve_impact_newton,
    tangent_basis,
)
from .integrate import (
    DenseSegment,
    EventHit,
    StepperConfig,
    integrate_until_event,
    locate_event,
    step,
)

__version__ = "0.1.0"
