"""The command line's contract, pinned at the bytes.

Every subcommand runs in process, in both formats, and its exit code and
the sha256 of its stdout must equal the recorded values, so a change to how
the commands are declared or dispatched that moves one byte of output fails
here.  dprkit's own error messages are pinned word for word.  argparse's
messages and help text are not: they change between Python versions, so
for those only the exit code is.
"""

import hashlib
import json

import pytest

from dprkit import cli, fixedpoint
from dprkit.algebra import canonical_json


def run(capsys, command):
    try:
        code = cli.main(command.split())
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


MIXED_ALL_GOOD = "verify mixed -n 3 -m 3 --seed 42 --trials 20"
# takes the m = 1 branch with a good class in 6 of its 20 trials
MIXED_ONE_GOOD = "verify mixed -n 3 -m 1 --seed 42 --trials 20"

# "argv": (exit code, sha256 of stdout)
PINNED = {
    "fgl show --mode universal --order 4 --format json":
        (0, "d30c4bccc289d3d0ec34d1d3f2474874e82feb07811f19e7271e5676633bd1f5"),
    "fgl show --mode universal --order 4 --format text":
        (0, "a365a9d5497b91336c1598b14561ee45a6ebdba58ed1a7fc53ea5d602a5ef510"),
    "fgl inverse --mode universal --order 4 --format json":
        (0, "b1a43f54b5b1172aeb3ab5540fa3be20b5d730181e54452b981f6752a3b2eb5e"),
    "fgl inverse --mode universal --order 4 --format text":
        (0, "854f0d571f651d12b34133504357d2d378676ebdd0b7352648f71db9f6c28edb"),
    "fgl nfold --mode universal -n 3 --order 3 --format json":
        (0, "a9e16d884ec9ee303bad3d4eea75bad7af14af773382f52b36c6d7e1205ca331"),
    "fgl nfold --mode universal -n 3 --order 3 --format text":
        (0, "602b2428b0deabf696f05b6612165ac5c50630b7378b28c8e56b729afc9ac92b"),
    "fgl divide --mode universal -n 2 --order 3 --format json":
        (0, "5951e67b34ce9e2400ec45114f46a7fc1a9a79a4e9996dfa67d1a2b17c04b79b"),
    "fgl divide --mode universal -n 2 --order 3 --format text":
        (0, "ea776a6c9fc5fff62fe8058bd98607510efdb48b9efd966203ac7de399925fea"),
    "fgl show --mode additive --order 4 --format json":
        (0, "85b1ceb80b0716a4cc1a32bfe39a48b52aa613b4961f1f847a5f86d4dbf60572"),
    "fgl show --mode additive --order 4 --format text":
        (0, "e3d8f43c9acccc8aab639467a795d98f56b00e24fff11b81fded3ec48c8e90dc"),
    "fgl inverse --mode additive --order 4 --format json":
        (0, "4da3bd4ad628c71adc1d717e82f2234927336beac2e22eb913f83661bc520773"),
    "fgl inverse --mode additive --order 4 --format text":
        (0, "1922fd72a441f5e411f3831464e56c8d0121ac1868d2c3c1af820880262e2490"),
    "fgl nfold --mode additive -n 3 --order 3 --format json":
        (0, "696ad51e3cabe57647f958706b6f0609777f2b5f066ac8aa94c3ae73ccffb3d2"),
    "fgl nfold --mode additive -n 3 --order 3 --format text":
        (0, "3bc05990d9c7071619ccfdf0eea08a0fe96ccb51c0732ef12811786cfaff9743"),
    "fgl divide --mode additive -n 2 --order 3 --format json":
        (0, "ec40ab1844330bef9dacd86929b3820b51d22ea0e7d626337b30d9c5caebcf43"),
    "fgl divide --mode additive -n 2 --order 3 --format text":
        (0, "44d64d7b05da5cf6f237110a4ba08302a2c039cf4446fc7f80c41486dde2bdfd"),
    "fgl show --mode multiplicative --order 4 --format json":
        (0, "b69d412d39a0116270e38b2e605cc30d2866f1c1bff0f1bdee0218365b01f4cb"),
    "fgl show --mode multiplicative --order 4 --format text":
        (0, "4dc802b690074c6ecd80fdd63cadbbda5079ac803149b0b69948531c2857458e"),
    "fgl inverse --mode multiplicative --order 4 --format json":
        (0, "806471d5be1ddbb4c3cb7663dd7a9b122b4cf1cffcb18dabc87bf222a11dea4d"),
    "fgl inverse --mode multiplicative --order 4 --format text":
        (0, "9eeb11905be2524c1c1381efacdb1043bb689d1446a899d2a88400b40e6a36da"),
    "fgl nfold --mode multiplicative -n 3 --order 3 --format json":
        (0, "5e42956c804e9ab32f8ceb479bf8f73632fe1721123e923847375d8cc7105874"),
    "fgl nfold --mode multiplicative -n 3 --order 3 --format text":
        (0, "89f589b6ed2b25a698c1afbe507b410a548fb69bd889fe93ae0f0afecdcc5a47"),
    "fgl divide --mode multiplicative -n 2 --order 3 --format json":
        (0, "d933a725eb1f396a93f1b87483c480fa27c38081502a06cadd1152faff261c58"),
    "fgl divide --mode multiplicative -n 2 --order 3 --format text":
        (0, "cc9008b242b9aff6e954655aa31e6ca795fbc0013b46fcc47ac689797413a63a"),
    "fgl show --order 3 --format json":
        (0, "3cb5573df03c7bcebce91e066f2b12b5f8c28a5f22a34bb25b4116c210100e2d"),
    "fgl show --order 3 --format text":
        (0, "7977baf0673fb080b2fcd4a89b75103bf4c5a67e871a494cf8643d54e4c64eff"),
    "fgl divide -n 3 --order 6 --denominator-profile --format json":
        (0, "4beebbc63a241230d2ecc36952691c55e90319d8a3c6d7ad87455ec6c93b7157"),
    "fgl divide -n 3 --order 6 --denominator-profile --format text":
        (0, "4ea20ba6d4f34921582ea3ff9fb8948f209d74d74009efc1809e7e4ef4929c7a"),
    "fgl relations --order 5 --format json":
        (0, "ed17ae017c99a48f5437cc6e3cc32311994d2b05de1514c37ae5a8341b2a902e"),
    "fgl relations --order 5 --format text":
        (0, "8e2b23fe0acb4aad8a5fae462b3d831c56090e6970df38a5a0f2ed7b2cdd0728"),
    "fgl relations --order 2 --format json":
        (0, "8c1ea527ce837319e3ca5f0f0625763da830190c36bb58106c9eb42c7bd97749"),
    "fgl relations --order 2 --format text":
        (0, "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    "gdpr build EX -n 3 --format json":
        (0, "900de70c3806cd059fef96a7625904a38ee7ccffabe020811133043e0fd9af47"),
    "gdpr build EX -n 3 --format text":
        (0, "bc50c5fe0e72be9a39519ec71aa8abeb30e3d31bef47c5f9675625212f517a5d"),
    "gdpr build FX -n 3 --format json":
        (0, "01583891ec9f24f19f63c1fdd83378bb16585604c919fc666839d2fc7cf8f305"),
    "gdpr build FX -n 3 --format text":
        (0, "4cb42902a231f0ffaa6d6276bf1eab8243f6f764866b2ae5984c112e6409f939"),
    "gdpr build EY -n 3 --format json":
        (0, "9f6efb61c07950a47d401c6f6a2212df848951902ffbb81941789fe4465d2828"),
    "gdpr build EY -n 3 --format text":
        (0, "305b388a75441b59407ae6b6026470d1ee29ca7ff9d5cf7c81a4776d9c4d9f42"),
    "gdpr build FY -n 3 --format json":
        (0, "8c0640ef176f4c7ca2bb0f565300e54f717e6dfeb00325bd1b828ae7e2c2601d"),
    "gdpr build FY -n 3 --format text":
        (0, "4280e20781e22d7c5cb1f1fbced0f9b1daf8cf234ac8ca64b5678696547fd730"),
    "gdpr build GX -n 2 -m 1 --format json":
        (0, "61313767729227b8d689ec54989c7911609a9cee308a330ba61cb5ec5db9fc61"),
    "gdpr build GX -n 2 -m 1 --format text":
        (0, "4fa4d5569f944486d7dca8d2bc95f20cf83ae97498c8732a8f9bd813b31e5ccb"),
    "gdpr build GY -n 3 -m 2 --format json":
        (0, "0bf39c1f7da18adfe6d5a7782bbc384b82feff6b90ad148e22de2d4aa5edd4c2"),
    "gdpr build GY -n 3 -m 2 --format text":
        (0, "45a90127395f6286ad5b91b0d20e45089e602737fb79770a122dfa925f297c83"),
    "gdpr build ex -n 1 --format json":
        (0, "740caf8d00161197499bf94c244be442c46d01a8302b1874dbf40c0309307957"),
    "gdpr build ex -n 1 --format text":
        (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "gdpr check multilinear -n 3 -m 2 --format json":
        (0, "fe5aecd89689c2c0a443e02283daa49fd75988d4a6f4d564801dd4a2266d2461"),
    "gdpr check multilinear -n 3 -m 2 --format text":
        (0, "5bb3106395fe27031e1044d162869931a817c73596cb0b1a74b2da570525bed6"),
    "gdpr check bounds -n 3 -m 2 --format json":
        (0, "019df256e68f3df334238d9f1b962a80740c95df4890eb3013a43999168b9ad6"),
    "gdpr check bounds -n 3 -m 2 --format text":
        (0, "edf5919852c2a61b3c10ae649374b3da1fc711a9c9271e2a9c3f264c631a95ed"),
    "gdpr check weight -n 3 -m 2 --format json":
        (0, "c88b0b13b500cb1206493a9b09e0004e3e9c48d6139f9e882ced4bc4146bd593"),
    "gdpr check weight -n 3 -m 2 --format text":
        (0, "a94de13727e0ca5af9b3f725c868b9758f2b5b0b07e5536c8bfcbdb86200df92"),
    "gdpr check mirror -n 3 -m 2 --format json":
        (0, "811bcae4601f5e239f4291fbaa32e43183987464e3789265127273525a881f27"),
    "gdpr check mirror -n 3 -m 2 --format text":
        (0, "f9895f24b0ece5af323221acd73a73cbce1e3944ba819898b341810f1c4346d1"),
    "gdpr check padding -n 2 -m 2 --big-n 4 --big-m 3 --format json":
        (0, "aaadf3dd3c3c552d3d1c07a2cf08f4f2b74eff12e8be186b51d1345679a0e388"),
    "gdpr check padding -n 2 -m 2 --big-n 4 --big-m 3 --format text":
        (0, "4465bf7bd560b39858f8708db8f2fbad5b128e8c6672de50159a784ca055895f"),
    "verify step -n 3 --seed 9 --trials 4 --format json":
        (0, "9f23f738d558e4b35bdd78045cb8dc90d35f313094dd5af29f1ab4612565daaa"),
    "verify step -n 3 --seed 9 --trials 4 --format text":
        (0, "515b264c52a6c5919fe7076f1cbec28332f51f3343a90cbb2a1b85043526163a"),
    "verify full -n 2 -m 3 --seed 5 --trials 4 --range 50 --format json":
        (0, "4a31f9d660ce4a61a7b3b44e3bcca92fda4c0f962b10f2a17aebf3fc81c526af"),
    "verify full -n 2 -m 3 --seed 5 --trials 4 --range 50 --format text":
        (0, "fe24e8a4e633faae04b75a6d2d11452f3133c53834ad5c2e4c920f4119b032bc"),
    "verify mixed -n 3 -m 2 --seed 5 --trials 4 --format json":
        (0, "e296a4272513ff0cea80370b3a7e3abd85a9428d3a1e031909b708bac9584a5f"),
    "verify mixed -n 3 -m 2 --seed 5 --trials 4 --format text":
        (0, "bd63b763c9853350431f1377e7c9b702fd67472c73f17f73ad42ff60e44841f7"),
    # walks all-good steps, which the command above never takes
    MIXED_ALL_GOOD + " --format json":
        (0, "25b0d0d7c194105987c9f733de1543100ea5e57837fe5be00290ffa535b5230b"),
    MIXED_ALL_GOOD + " --format text":
        (0, "02c2cfd86d78f93d3ba3fa6531cf0abd04004210b156a4950b1b27ebe0aeee15"),
    MIXED_ONE_GOOD + " --format json":
        (0, "f6f8a14035982a68c6432aac002730a294cd2955ae345f73e57d9afd448f43fe"),
    MIXED_ONE_GOOD + " --format text":
        (0, "2b66433e39f89bc634a3f75ee18eab827544dfc36c8e19db0d69fb14eef627a5"),
    # the sampler's rejection edges: width 3 redraws a quarter of its draws
    # and width 9 seven sixteenths; each command resamples degenerate points,
    # so a changed draw stream moves its resample count
    "verify full -n 4 -m 3 --seed 3 --trials 30 --range 1 --format json":
        (0, "b25d8eebba8fe52b0e9f715a457630c38c94f1d7383e6a73d09017bb24f3fe0d"),
    "verify full -n 4 -m 3 --seed 3 --trials 30 --range 1 --format text":
        (0, "2a08c1a6823b35bccd8a34a3d91b364017dc787738f1bffa9bf1e2f264a9815f"),
    "verify step -n 3 --seed 34 --trials 30 --range 4 --format json":
        (0, "e172be88ada03449719824f17ab3067a7d43000a61759f14f4bd771141871915"),
    "verify step -n 3 --seed 34 --trials 30 --range 4 --format text":
        (0, "83dd7e8e59c2cf03308e3d3398c574474386c669fab50c2b993ca044d5c0cf92"),
    "verify mixed -n 4 -m 3 --seed 3 --trials 30 --range 1 --format json":
        (0, "c27c20c558f55798e2015566618abfd53cf67ae6f8c54e826d686aa51cf3d807"),
    "verify mixed -n 4 -m 3 --seed 3 --trials 30 --range 1 --format text":
        (0, "7ad3e33f11eec6ce36ba288f08e08776b42d74770ea2990b2faf80e8fc0ff2aa"),
    # degenerate draws of the walks' pair kernels (9, 7, 7 and 13
    # resamples): a step solve, blow-up steps and last-class solves at
    # ranges 1 and 2, a second-family walk with no first-family step, and
    # the mixed verifier's all-good steps
    "verify step -n 6 --seed 11 --trials 40 --range 1 --format json":
        (0, "11102510ce1a03f05525c31954683655cd0e8ca054f142cf9549f277dba58347"),
    "verify step -n 6 --seed 11 --trials 40 --range 1 --format text":
        (0, "351778af34d18ce9e938878d5f25e34b2914080c7e36ce3c193ca42658e3051c"),
    "verify full -n 5 -m 5 --seed 9 --trials 40 --range 2 --format json":
        (0, "1aea28f5964bec870bdd8b3b41c8e99e1470f14a2ab291dfd3e9f0b387f7901d"),
    "verify full -n 5 -m 5 --seed 9 --trials 40 --range 2 --format text":
        (0, "b45d1a82285bd639bf3fa8970d99dad159757d7adbd23bea9b079879c5a596fe"),
    "verify full -n 1 -m 4 --seed 2 --trials 20 --range 1 --format json":
        (0, "d7a42bd60c2cd44052e3e4c378169c422e62d02a2329a71320db7906b832ed51"),
    "verify full -n 1 -m 4 --seed 2 --trials 20 --range 1 --format text":
        (0, "5e04f4295a3a9eaef5cf0657535f46f3403c7f861b01d5c2e252fc23c68392af"),
    "verify mixed -n 3 -m 3 --seed 7 --trials 200 --range 1 --format json":
        (0, "c41579af40ed8524f74e45291662722cd31f045ec05913c1bc90fe79870920e7"),
    "verify mixed -n 3 -m 3 --seed 7 --trials 200 --range 1 --format text":
        (0, "e649a70f4a902c50146b15613aa478f079b83d6049e3fd03ede14ce92e951885"),
    "fixedpoint claim1 --case 1 --format json":
        (0, "a1f8b625544d0bd44f4ac7b6a73f5e50bb79165e406f9288a9c42d644e37b277"),
    "fixedpoint claim1 --case 1 --format text":
        (0, "d6492f841f40a50dc6270b3a221588f0df5a79f8066b3d4c46de56c3f3e5ca91"),
    "fixedpoint claim1 --case 2 --format json":
        (0, "67fce74d53063f938c234617a4314d15aed875b0e60789e132191564de548d4e"),
    "fixedpoint claim1 --case 2 --format text":
        (0, "24058eb4881562ca5206d6342fd0e29f8c2929899ffe3f4335708dbb32862771"),
    "fixedpoint claim1 --case 3 --format json":
        (0, "3ffdc4827f6fded3518948eb3f9d4b8f9979f547ed29334dd2dbeefe5de1a8d7"),
    "fixedpoint claim1 --case 3 --format text":
        (0, "9a0faeac67cd222d4a5bbb75c8aaf9d97f801e378f2a5f7c91c1bce2086ce530"),
    "fixedpoint claim1 --case 4 --format json":
        (0, "dfad62a76a32e1bd8eace84948af1f03d824d21b9f74a655b609568964f51bbb"),
    "fixedpoint claim1 --case 4 --format text":
        (0, "9c84d04926c4ce70a25782917dbaf08ad8bf090bafd8f594caf5aea0c51ac92f"),
    "fixedpoint claim1 --case 5 --format json":
        (0, "531c42b5fafe65b74897400bc856511ca24a282f30e13c2c8aa583625538a6ca"),
    "fixedpoint claim1 --case 5 --format text":
        (0, "5a53165093051456ffafc961a60a74d059990067db485be838ad27eb31ec1f0a"),
    "fixedpoint allbad -n 2 -m 1 --format json":
        (0, "7b2cb7b9fa01ed1b378f6e27a979d68b967139c612d4d005c203b71e937eb3ae"),
    "fixedpoint allbad -n 2 -m 1 --format text":
        (0, "336701fdf18c0712995a9d0e1d75c45201e28ace964c31d8786e58498177564f"),
    "fixedpoint allbad -n 3 -m 2 --format json":
        (0, "915306bd40fac75f36cb93ff81aaa5419e74638eff081ca250f2767332f2d7a3"),
    "fixedpoint allbad -n 3 -m 2 --format text":
        (0, "abba81f5daa6669aaccd6ac91c1ea3b7d2626b14bc080f2c98e7a8bddb3499b3"),
    "fixedpoint guard --group 2 --format json":
        (0, "68f4f189d5ae15d0519eaf82076112f1d665751a6fd3520da02c1f0b3d1066df"),
    "fixedpoint guard --group 2 --format text":
        (0, "db144f6ef662785e7bc742f303f994c8f5812abf6d71e629f43d41b6f93bb045"),
    "fixedpoint guard --group 2x3 --format json":
        (0, "c2b1656151db87798391f94d18a3eb07a0dd481cac9ff4a8920f597a1e3c74f8"),
    "fixedpoint guard --group 2x3 --format text":
        (0, "449f064bfda9e90e4395db0543adb11cac80635f48e2b249f9fca5ed9c4e16dc"),
    "selftest --format json":
        (0, "d418621d204ce7d443f57e0b3b41e316e6bbb9d0c0a1319d2582d238b3788ec6"),
    "selftest --format text":
        (0, "a64a10d2d7de8288c09ed19439519cde89c6c3cade185ea0fbe4be61344f6029"),
}


# "argv": the error dprkit writes on stderr, exit 2
ERRORS = {
    "gdpr build GX -n 2": "GX needs both -n and -m",
    "gdpr build GY -n 1": "GY needs both -n and -m",
    "gdpr build EX -n 2 -m 1": "-m does not apply to EX",
    "gdpr build fy -n 2 -m 1": "-m does not apply to FY",
    "gdpr check padding -n 2 -m 2": "padding needs --big-n and --big-m",
    "gdpr check padding -n 2 -m 2 --big-n 3": "padding needs --big-n and --big-m",
    "gdpr check weight -n 2 -m 2 --big-n 5": "--big-n does not apply to weight",
    "gdpr check mirror -n 2 -m 2 --big-m 5": "--big-m does not apply to mirror",
    "gdpr check multilinear -n 2 -m 2 --big-n 3 --big-m 3":
        "--big-n does not apply to multilinear",
    "gdpr check padding -n 3 -m 1 --big-n 2 --big-m 2":
        "ValueError: padding requires n <= N and m <= M",
    "gdpr check bounds -n 0 -m 1": "ValueError: both counts must be >= 1",
    "gdpr build GX -n 0 -m 1": "ValueError: both counts must be >= 1",
    "gdpr build EX -n 0": "ValueError: n must be >= 1",
    "fgl show --order 0": "ValueError: order must be in 1..32",
    "fgl inverse --order 33": "ValueError: order must be in 1..32",
    "fgl nfold -n 0 --order 3": "ValueError: n must be positive",
    "fgl divide -n 1 --order 3": "ValueError: division needs n >= 2",
    "fgl relations --order 0": "ValueError: order must be in 1..32",
    "verify step -n 1 --seed 1": "ValueError: the step identity needs n >= 2",
    "verify step -n 3 --seed 1 --trials 0": "ValueError: trials must be >= 1, got 0",
    "verify full -n 2 -m 2 --seed 1 --range 0":
        "ValueError: sample_range must be >= 1, got 0",
    "verify mixed -n 0 -m 1 --seed 1": "ValueError: class counts must be positive",
    "fixedpoint claim1 --case 6": "ValueError: case must be 1..5, got 6",
    "fixedpoint allbad -n 0 -m 1": "ValueError: class counts must be positive",
    "fixedpoint guard --group banana": "ValueError: bad group spec: 'banana'",
    "fixedpoint guard --group 2x0": "ValueError: bad group spec: '2x0'",
}

# rejected by argparse itself: exit 2 and a JSON error, wording not pinned
USAGE_ERRORS = [
    "",
    "nosuch",
    "fgl",
    "fgl show",
    "fgl show --order 3 --mode bogus",
    "fgl show --order 3 --format yaml",
    "fgl divide -n 2 --order 3 --denominator-profile 1",
    "gdpr build ZZ -n 1",
    "gdpr check nosuch -n 1 -m 1",
    "gdpr check mirror -n 2",
    "verify step -n 3",
    "verify full -n 2 --seed 1",
    "verify mixed -n 2 --seed 1",
    "fixedpoint claim1 --case x",
    "fixedpoint guard",
    "selftest --extra",
]

LEAVES = [
    "fgl show", "fgl inverse", "fgl nfold", "fgl divide", "fgl relations",
    "gdpr build", "gdpr check", "verify step", "verify full", "verify mixed",
    "fixedpoint claim1", "fixedpoint allbad", "fixedpoint guard", "selftest",
]


@pytest.mark.parametrize("command", list(PINNED))
def test_output_is_pinned(capsys, command):
    code, out, err = run(capsys, command)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (*PINNED[command], "")


def test_the_mixed_pin_walks_an_all_good_step(capsys, monkeypatch):
    # so the pins cover the mixed verifier's blow-up step and its last-class
    # solve, not only the degenerate steps
    calls = {"blow_up": [], "last_class": []}
    for name in calls:
        def counted(*args, name=name, original=getattr(fixedpoint, name)):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(fixedpoint, name, counted)
    assert run(capsys, MIXED_ALL_GOOD)[0] == 0
    assert calls["blow_up"] and calls["last_class"]


@pytest.mark.parametrize("command", list(ERRORS))
def test_error_text_is_pinned(capsys, command):
    assert run(capsys, command) == (2, "", canonical_json({"error": ERRORS[command]}))


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_errors_exit_two(capsys, command):
    code, out, err = run(capsys, command)
    assert (code, out) == (2, "")
    assert list(json.loads(err)) == ["error"]


@pytest.mark.parametrize("command", LEAVES)
def test_every_leaf_answers_help(capsys, command):
    code, out, err = run(capsys, f"{command} -h")
    assert (code, err) == (0, "") and out.startswith("usage: dprkit " + command)
