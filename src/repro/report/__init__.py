"""Figure-reproduction reports: refdata, fidelity scoring, SVG, HTML.

The subsystem that turns cached :class:`~repro.runner.RunRecord` sweeps
into a self-contained reproduction report (``hpcc-repro report``):

* **figures** — the render-hook data model (:class:`FigureRender` /
  :class:`Panel` / :class:`Series`) every experiment module maps its
  records into;
* **refdata** — digitized SIGCOMM'19 reference curves and per-figure
  pass/warn thresholds, JSON under ``refdata/`` with a validating
  typed loader;
* **fidelity** — normalized-RMSE + trend-agreement + scalar-check
  scoring of a render against its reference (:func:`score_figure`);
* **svg** / **html** — the dependency-free chart emitter and the
  self-contained ``index.html`` assembly;
* **build** — the pipeline tying it together over the existing
  SweepRunner/RunCache (imported lazily by the CLI; import it as
  ``repro.report.build`` to use it as a library).

This package deliberately does not import ``repro.experiments`` at
import time (the experiment modules import :mod:`repro.report.figures`
for their render hooks); only ``build`` does, for the figure table.
"""

from .fidelity import (
    CheckScore,
    FidelityScore,
    SeriesScore,
    evaluate_check,
    nrmse,
    resample,
    score_figure,
    trend_agreement,
)
from .figures import (
    FigureRender,
    Panel,
    Series,
    bucket_panel,
    cdf_series,
)
from .refdata import (
    RefCheck,
    RefFigure,
    RefSeries,
    RefdataError,
    available_refdata,
    load_refdata,
    refdata_path,
    validate_refdata,
)
from .svg import PALETTE, nice_ticks, render_panel

__all__ = [
    "CheckScore",
    "FidelityScore",
    "FigureRender",
    "PALETTE",
    "Panel",
    "RefCheck",
    "RefFigure",
    "RefSeries",
    "RefdataError",
    "Series",
    "SeriesScore",
    "available_refdata",
    "bucket_panel",
    "cdf_series",
    "evaluate_check",
    "load_refdata",
    "nice_ticks",
    "nrmse",
    "refdata_path",
    "render_panel",
    "resample",
    "score_figure",
    "trend_agreement",
    "validate_refdata",
]
