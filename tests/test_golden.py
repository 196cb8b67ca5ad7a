"""Suites pinned byte for byte.

Each digest is the SHA-256 of ``io.suite_to_csv`` output.  A refactor of the
formulation, the solver or the decoder must leave every one unchanged; a
change that means to alter suites updates them and says why.
"""

import hashlib

import pytest

from paircover import bench, io
from paircover.greedy import greedy_suite
from paircover.pipeline import PipelineConfig, run_pipeline

PIPELINE_DIGESTS = {
    ("bbu-5g", True): "1a2708cd10e3a572f08177f00a2dcdf4f8391639d5667407e10d718e5d946960",
    ("ca-3^3", True): "350f8ad58f093800326a7ceee80612f24a51704894e0e90c272df3a1564a8a73",
    ("ca-3^4", True): "518e4b6d1617a767edb3f898dd9dd86d12e1503f9b29ba3937f6d51de9a41ff3",
    ("rand-11", True): "5e800a3cf5de58aaea5fa78d890cfd0f61bac6eb9081c37ce1d8626011faf0a6",
    ("rand-14", True): "fbddd516574f2346bb2556be0de5e5e1da2e30b05df26e91fcab4d9052a502b5",
    ("rand-23", True): "c6a787163cb995696c0103676e6eacacaba47839f7a7bd3eabcb54e21642bb4a",
    ("bbu-5g", False): "1a2708cd10e3a572f08177f00a2dcdf4f8391639d5667407e10d718e5d946960",
    ("ca-3^3", False): "350f8ad58f093800326a7ceee80612f24a51704894e0e90c272df3a1564a8a73",
    ("ca-3^4", False): "518e4b6d1617a767edb3f898dd9dd86d12e1503f9b29ba3937f6d51de9a41ff3",
    ("rand-11", False): "5e800a3cf5de58aaea5fa78d890cfd0f61bac6eb9081c37ce1d8626011faf0a6",
    ("rand-14", False): "7859537afe720d57a6cf7481e6aaffb4bad94612c54d59d2c2662da16acb141e",
    ("rand-23", False): "c6a787163cb995696c0103676e6eacacaba47839f7a7bd3eabcb54e21642bb4a",
}

GREEDY_DIGESTS = [
    "84e2e3a583817fbe4f83c95b97eb79089f31ca8d1aea1d6fc92dcd85e29627b3",
    "02c7adf608f59c483b7588d9eb19947c5bd3387a36f9d90cf387dd22dc6c879e",
    "74cceb16480057b701dcf4224e0422ca86f03acbfed12068c261c34e8c789884",
    "df6298d53a4db9560b2e8a20e2157d5d0b5a4f42252983c59a117de145becbee",
    "9ec181dc1794d80fedfaeda0dc36429a2e8f315d2da3e7576cdbf3cc32909b32",
    "9ce86c53fde7c6d8c2fcafcb670db53b8016b4a69073585011e814a8ec2f3181",
    "b749fa3568e077f621c758fa58ba08ff753e022d7bc8b38841acb376e35d8874",
    "289dd0ad5ec18ab88224e79ad0d312608b8a33fe4822e0e69ae83d36ae0a1d91",
    "3ca7a520eff5120766ab6d1424724cfa903d133013d1cf5638fafca54074e344",
    "3fe77c8fdbfda5b6d269e4914ed27ec53d5b375ceea3baf9e3c7a604d4036e75",
    "c78fc00c269d6573f3812fb9ded95d98492de11944d599248e8471c40255b65d",
    "96d950de5cd5b453d63e0ed25586e3021b7e95acd04161416bcce8307a68d84f",
    "1f90af6cf3f5cc4e21694d56c9111303505bf93f4ce0b33b4d4a31ad73dad58d",
    "42ccb9749adad2268d106860653d1aa5fcbaa20eeb929b6daecff78391a4b6e0",
    "379a45f90a737882aac9eaa0372ac902a2e676f767e293b447a02438d0cade88",
    "81ef2e437d34c41e19fbb2c9b7796b75304dc6cef246a24dde64a0dfdeaffcdc",
    "c528129a467c2f3a60bf83d3d8cc8551bddfa75cb8cda210cacc2a2c2e3da94d",
    "0904745cf1b51ab8ed972cd14f51b12b6fbfd251c28a638e2bb9760ee47676de",
    "5ffa9c5e629738567e2e7e5e7cf373900a3aebfd1de31855114af36574f5f36c",
    "169c969e237d9886c0fe28d136ce9ab0f02b8fae5adc1494c08488e274bb8e74",
    "4bf6c164e7a523d46b797b401f2c4e74ab4bf6f80bb3c2e948a5d1e054948332",
    "6ec7d98afc715ea74fcf0ad52606477bd72c3003fcb82c9cc8a064c633c52950",
    "c35f43d2661c46e7834ba9e908f93ed8dc759293b5cc2bd406ee4638007b00b7",
    "925fe850db62c28680fbd9e2606ed5d2f15ac760d6d27e11176d91b811785d31",
    "3229b4f0d9b32fbb4390372e1ac15600cdd0ada4e8ae2b26d594fd41d3885c31",
]


def _digest(suite):
    return hashlib.sha256(io.suite_to_csv(suite).encode()).hexdigest()


def _instance(name):
    if name.startswith("rand-"):
        return bench.random_instance(int(name[len("rand-") :]))
    return bench.classic_instances()[name]


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
def test_pipeline_suites(weighted):
    got = {}
    for (name, w) in PIPELINE_DIGESTS:
        if w == weighted:
            system, cs = _instance(name)
            suite, _ = run_pipeline(system, cs, config=PipelineConfig(weighted=weighted))
            got[(name, w)] = _digest(suite)
    assert got == {k: v for k, v in PIPELINE_DIGESTS.items() if k[1] == weighted}


def test_greedy_suites():
    got = [_digest(greedy_suite(*bench.random_instance(s), seed=0)) for s in range(25)]
    assert got == GREEDY_DIGESTS
