"""The generator's output, pinned as sha256 digests.

Every synthetic dataset in the package (``gen``, the bench, the acceptance
gates and the corpora) comes from ``gen_dataset`` or from
``bench.run_replication``'s draw.  A change to either that draws other
numbers, or draws them in another order, changes a digest here, so a
refactor of the generator shows that it draws the same data.  A change that
means to draw different data re-pins these and says why.

X and beta are pinned bit for bit.  The response is pinned at float32
precision: a gaussian y holds ``X @ beta``, summed by the BLAS kernel, and
a cox time holds numpy's SIMD ``exp`` and ``log``, whose last bits differ
between CPUs.  The 0/1 arrays (a binomial y, a cox status) are exact in
float32, so they too are pinned bit for bit.
"""

import hashlib

import numpy as np
import pytest

from bestsubset.bench import BenchScenario
from bestsubset.datagen import GenConfig, gen_dataset
from conftest import replication_draw


def digest(array, dtype=np.float64):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def dataset_digests(dataset):
    """Array name -> digest, for X and each response array."""
    response = dataset.response
    return {
        "X": digest(dataset.X),
        **{name: digest(getattr(response, name), np.float32) for name in response.columns},
    }


GEN_CASES = {
    "gaussian": GenConfig(n=30, p=8, q=3, seed=11),
    "binomial": GenConfig(n=30, p=8, q=3, family="binomial", seed=12),
    "cox": GenConfig(n=30, p=8, q=3, family="cox", seed=13),
    "cox-censored": GenConfig(n=30, p=8, q=3, family="cox", censor_rate=0.3, seed=14),
    # at sigma 2.3, (5 sigma) base and 5 (sigma base) differ in the last bit
    "positive": GenConfig(n=30, p=8, q=3, signs="positive", rho=0.2, sigma=2.3, seed=15),
    "explicit-beta": GenConfig(
        n=30, p=8, q=3, family="binomial", beta=(2.0, 0, 0, -1.5, 0, 0, 0.5, 0), seed=16
    ),
}

REPLICATION_CASES = {
    "gaussian": BenchScenario(family="gaussian", n=30, p=8, q=2, reps=1, holdout=20, seed=21),
    "binomial": BenchScenario(family="binomial", n=30, p=8, q=2, reps=1, holdout=20, seed=22),
    "cox": BenchScenario(
        family="cox", n=30, p=8, q=2, reps=1, holdout=20, censor_rate=0.2, seed=23
    ),
}

GEN_PINS = {
    "gaussian": {
        "X": "6c43eba877578198749974474d3b368b7ecbb8242f49d5b3cfab8c15913fa490",
        "beta": "f84b793ae38256f81268c575811c521f9fb811cded11463ec0ab3001545e9d06",
        "y": "fe514a32e8de50089fc5ae00ff77094e2c9d7c704b8db89e862404869ebf2bc5",
    },
    "binomial": {
        "X": "7e2ec4f6d9a3e053c3bfbe3862b3b07b58cbeb3eec9eeaff38ce20a03e7dae23",
        "beta": "fde99e11468d491c1c7d5a592e5948242f6d927cac210fc249149a751078b07f",
        "y": "ab95a20cc796d147f38fe3542763189fedc1c65afbaed1e4939aed0f3e66304e",
    },
    "cox": {
        "X": "8a58ef893a21c69dc31421d763664baacbc73dc53cccb3d510770a1cf3a1d9b7",
        "beta": "5dbe42a58db6ae7245f0df8be4c13e3c7dcb11ceb1ed6060ba97e6daf70b51f3",
        "status": "c52f140690590096a52c47a5433cb2036ba0d085d566e964ad0b8f9fc930a8c5",
        "time": "8221ccdca878c63ead51b7b60b1fe523494bab80d6de3efb5bd7c0d9da1cfffe",
    },
    "cox-censored": {
        "X": "a953ef35ea5dcdf272c587bca5872123d7932448c8bceda24c994017406d335d",
        "beta": "29afbb197a9cd8f0dee10ff5da0b33519b923ca7a531a2cc48b6ab2deb8e437d",
        "status": "cb1216534a62e86365d84d37830fef9f39237058a1539ec243fc4894436920d0",
        "time": "af1902f6560eeee0c55b0d687a45144dc158bcbfb8d3b9f1f8d0c6cd8298120d",
    },
    "positive": {
        "X": "0006d278493ce129001cddab19930698e4ebc3c28b8d5a96a78d4892a37ef9d8",
        "beta": "da20b7ae686af27e3d5627d94ed3515c3b1d31da7594a8a31f6adc2b57dd1efb",
        "y": "fbf2864852ed234bef1e483303487d6e7e7a9ed06df92b61d440cb9e8a979269",
    },
    "explicit-beta": {
        "X": "d786ac7b2c7a6e51937a05c02836e670b56bbab60df7f5b8deaa83db18ecd2b4",
        "beta": "381a713caf01afa86a2a6c51dfb4f1f06f21479b012b5442f9fa4d4fc70507a3",
        "y": "5013804ea732462d3b343af375a4497351dae0689cb0a3ff23814ade31706cbf",
    },
}

REPLICATION_PINS = {
    "gaussian": {
        "X": "51d313a043416831d32ba690184489751d49b55ca68ab106dfaf8552ed2d56d0",
        "y": "1959652a0fca249479a776d343627df448c982bafc27d54034c45de9dd0235d6",
    },
    "binomial": {
        "X": "916e682624457247a19d2f3dd0bfb303769c6e29a296051cd71965a65648b46b",
        "y": "7e93867833265df9dec9c26242a6b778443bce8851ac18ddb976d7780d04ea54",
    },
    "cox": {
        "X": "9925a8b5dc99420ca393355915d2e921d47e3583f80b046bd1a4f4e75ef9f06a",
        "status": "f9524ec1825082a50c98bb1011b78acc13b7ce70490ba87a988d3b7a1e712fc9",
        "time": "b01c21953120c2e7bdbda45571208684f04b360b9a1c563ec0c34ba602613b05",
    },
}


@pytest.mark.parametrize("case", list(GEN_CASES))
def test_gen_dataset_bits_are_pinned(case):
    dataset, beta, _ = gen_dataset(GEN_CASES[case])
    assert {**dataset_digests(dataset), "beta": digest(beta)} == GEN_PINS[case]


@pytest.mark.parametrize("family", list(REPLICATION_CASES))
def test_replication_draw_bits_are_pinned(family):
    dataset = replication_draw(REPLICATION_CASES[family], 1)
    assert dataset_digests(dataset) == REPLICATION_PINS[family]
