"""NoC link energy estimation with virtual channels.

Library layout:

* :mod:`noclink.streams`   -- synthetic streams and bit/switching statistics
* :mod:`noclink.energy`    -- 2D/3D capacitance models and energy evaluation
* :mod:`noclink.linkmodel` -- VC-aware link switching/probability model
* :mod:`noclink.oracle`    -- exact bit-level reference path
* :mod:`noclink.codecs`    -- bus-invert, Gray and correlator coding
* :mod:`noclink.simnet`    -- cycle-accurate VC router simulator
* :mod:`noclink.traffic`   -- typed statistical traffic injection
* :mod:`noclink.reporting` -- data-flow matrices and result emission
* :mod:`noclink.sweeps`    -- experiment orchestration (mux/coding sweeps,
  case study)
* :mod:`noclink.cli`       -- ``noclink`` command line entry point
"""

from .streams import (  # noqa: F401
    BitStats,
    DataStream,
    StreamSpec,
    SwitchingMatrix,
    compute_bit_stats,
    compute_sequential_switching,
    generate_stream,
    multiplex_streams,
)
from .energy import (  # noqa: F401
    Capacitance2D,
    Capacitance3D,
    TechnologyParams,
    normalized_energy,
    template_2d_bus,
    template_3d_tsv,
)
from .linkmodel import (  # noqa: F401
    DataFlowMatrix,
    LinkTypeStats,
    link_bit_probabilities,
    link_energy_report,
    link_switching,
    mux_switching,
    standard_link_switching,
)
from .oracle import LinkTrace, exact_energy, exact_switching  # noqa: F401
from .codecs import coding_gain, make_codec  # noqa: F401
