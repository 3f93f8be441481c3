"""Hierarchical Bayesian prognostics.

A two-stage framework for remaining-useful-life prediction: per-unit
posteriors are learned from historical run-to-failure series, pooled into a
hyperparameter posterior, and reused as an informative mixture prior when
updating a currently operating unit. Degradation families cover Paris-law
fatigue crack growth and exponential battery capacity fade.
"""

__version__ = "0.1.0"

from hbprog.models import (
    BatteryDoubleModel,
    BatteryDoubleParams,
    BatterySingleModel,
    BatterySingleParams,
    CrackDivergedError,
    CrackGeometry,
    CrackParams,
    DegradationModel,
    LoadingSpec,
    NoFailureError,
    ParisCrackModel,
    battery_capacity_double,
    battery_capacity_single,
    crack_length,
    cycles_to_failure,
    equivalent_stress,
)
from hbprog.targets import (
    HyperParameters,
    HyperPriorBounds,
    ParameterVector,
    current_posterior_logtarget,
    gaussian_loglik,
    hier_prior_logpdf,
    hyper_posterior_logtarget,
    lognormal_loglik,
    mixture_prior_logpdf,
)
from hbprog.samplers import (
    SampleSet,
    SamplerConfig,
    SamplerError,
    TargetSpec,
    TemperedTarget,
    slice_sample,
    tmcmc,
)
from hbprog.hierarchy import (
    Candidate,
    ClassicalPrior,
    Dataset,
    HierarchyResult,
    build_model,
    classical_update,
    fit_historical,
    model_select,
    sample_mixture_prior,
    stage1_infer,
    stage2_infer,
    update_current,
    update_many,
)
from hbprog.prognosis import (
    PrognosisConfig,
    PrognosisResult,
    end_of_life,
    predict_trajectory,
    rul_distribution,
)
from hbprog.io import (
    DataFormatError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_prognosis,
    load_sample_set,
    save_dataset,
    save_prognosis,
    save_sample_set,
)
