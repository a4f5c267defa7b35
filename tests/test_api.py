import spinsim
import spinsim.noise
import spinsim.scheduler


def test_every_exported_name_resolves():
    missing = [name for name in spinsim.__all__ if not hasattr(spinsim, name)]
    assert missing == []


def test_one_timing_class():
    # the noise charge and the scheduler read the same timing model
    assert spinsim.TimingParams is spinsim.noise.TimingParams
    assert spinsim.TimingParams is spinsim.scheduler.TimingParams
