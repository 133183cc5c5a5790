"""Tests for the shared LoadControl vocabulary.

Since 1.1.0 the service and the cluster spell their load-management
knobs identically and can share one :class:`LoadControl`; the pre-1.1.0
spellings (``ServiceConfig(policy=...)``, ``ClusterConfig(restart=...)``)
were removed in 1.2.0.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.errors import ServiceError
from repro.faults.backoff import RetryPolicy
from repro.service import LoadControl, ServiceConfig


class TestLoadControl:
    def test_defaults_are_valid(self):
        lc = LoadControl()
        assert lc.window == 16
        assert lc.high_water == 64
        assert lc.low_water is None
        assert lc.admission == "defer"
        assert isinstance(lc.retry, RetryPolicy)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"window": 0}, "window"),
            ({"high_water": 0}, "high_water"),
            ({"high_water": 8, "low_water": 9}, "low_water"),
            ({"low_water": -1}, "low_water"),
            ({"admission": "bribe"}, "admission"),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(ServiceError, match=match):
            LoadControl(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            LoadControl().window = 3


class TestServiceConfigAliases:
    def test_new_spelling_never_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ServiceConfig(admission="strict")
        assert cfg.admission == "strict"


class TestClusterConfigAliases:
    def test_new_spelling_never_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ClusterConfig(retry=RetryPolicy(max_retries=1))
        assert cfg.retry.max_retries == 1


class TestSharedControl:
    def test_one_control_feeds_both_configs(self):
        budget = RetryPolicy(max_retries=7, max_wait=2)
        lc = LoadControl(
            window=24, high_water=48, low_water=12,
            admission="shed", retry=budget,
        )
        svc = ServiceConfig(control=lc)
        clu = ClusterConfig(control=lc)
        assert (svc.window, svc.high_water, svc.low_water) == (24, 48, 12)
        assert svc.admission == "shed"
        assert svc.retry == budget
        assert clu.retry == budget

    def test_explicit_fields_win_over_control(self):
        lc = LoadControl(window=24, admission="shed",
                         retry=RetryPolicy(max_retries=7))
        svc = ServiceConfig(window=8, admission="defer", control=lc)
        assert svc.window == 8
        assert svc.admission == "defer"
        assert svc.retry.max_retries == 7  # unset field still from control
        clu = ClusterConfig(retry=RetryPolicy(max_retries=1), control=lc)
        assert clu.retry.max_retries == 1

    def test_control_without_overrides_validates_as_usual(self):
        lc = LoadControl(high_water=4, low_water=2)
        svc = ServiceConfig(control=lc)
        assert svc.effective_low_water == 2
