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
    BatterySingleModel,
    CrackGeometry,
    DegradationModel,
    LoadingSpec,
    NoFailureError,
    ParisCrackModel,
    equivalent_stress,
)
from hbprog.targets import (
    HyperParameters,
    HyperPriorBounds,
    gaussian_loglik,
    lognormal_loglik,
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
