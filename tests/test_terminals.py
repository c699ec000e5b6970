import numpy as np
import pytest

from jumpbsde.generators import StepContext
from jumpbsde.levy import LevyModel
from jumpbsde.terminals import make_terminal


@pytest.mark.parametrize("spec, unknown", [
    ({"name": "const", "valeu": 2.0}, "valeu"),
    ({"name": "jump_indicator", "marks": 1}, "marks"),
    ({"name": "x", "lo": 0.0}, "lo"),
])
def test_unknown_terminal_parameter_is_rejected(spec, unknown):
    with pytest.raises(ValueError, match=rf"no parameter \['{unknown}'\]; valid: \[.*'scale', 'shift'\]"):
        make_terminal(spec)


def test_known_terminal_parameters_are_applied():
    ctx = StepContext(model=LevyModel(0.0, 1.0, ((0.5, 1.0),)), x=np.array([-2.0, 0.5]),
                      counts=np.array([[0], [2]]))
    assert make_terminal({"name": "const", "value": 2.0, "shift": 1.0})(ctx).tolist() == [3.0, 3.0]
    assert make_terminal({"name": "clip_x", "lo": -1.5, "hi": 0.2})(ctx).tolist() == [-1.5, 0.2]
    assert make_terminal({"name": "jump_indicator", "mark": 0, "min_count": 2})(ctx).tolist() == [0.0, 1.0]
