"""Assembled images stay byte for byte what they were.

The kernel, every workload's user program and four of the wall-clock
benchmark's generated programs are assembled, and each image is
compared with digests pinned from an earlier assembler: the sha256 of
its bytes, of its symbol table and of its listing (both as sorted JSON
pairs).  A change that speeds up the assembler must leave them all
unchanged.
"""

import hashlib
import json

import pytest

from repro.kernel.kernel import build_kernel, build_user_program
from repro.workloads import ALL_WORKLOADS

from .support import cold_code_body

#: name -> sha256 of (data, sorted symbols, sorted listing).
GOLDEN = {
    "astar": (
        "c7e21a5822558685a572299835af5115dbe34fc04e3320dc96eaf40c55a8685b",
        "6194628d1acf85b6676785ac15140d0b8fe1357cf40836481adcd700165ee3bf",
        "48e4cfd4a1964ff809f7b834a0fa9ddcacec9e12a292d661e2bc98c02e2bfd79"),
    "bzip2": (
        "20a954de79633590fa119c7da2b318ecb4f2cf7cd6bf23cafaf70cd1201b493f",
        "7d973c29908d8305bbfae47873188b4edfb6b61546d9ab25f458f5cd2f51edf7",
        "5cbe4354f293b14dc4e4ea50a610149c2ac7e3cff6684dcc9ca65db0403fc852"),
    "cold-1-0": (
        "2ddf89131dc607dee8b2851995afff1ddb67b87f90ee500ae9b8c5e9416e8a29",
        "cd1bf24fade18dbbd8a413ebe3e16d1a10003ec8e1cce7a32ad08a3a910e7b77",
        "712fb92de3b1337a3942a93b55da491053d3c3d8497623b650726d9cc1bf8852"),
    "cold-1-1": (
        "fedf098e7e744088dbf4a8c6b26d5f8b0fd0aa101a63d6605482abed4c074638",
        "cd1bf24fade18dbbd8a413ebe3e16d1a10003ec8e1cce7a32ad08a3a910e7b77",
        "e19db6568613af402fb0a7973924f9615147b537353d4a5f32735f56849f24c9"),
    "cold-2-0": (
        "4c9c4e849f2921b9c14d827722a84716a1737a0b875d7ae37b3ff72a92b8c803",
        "cd1bf24fade18dbbd8a413ebe3e16d1a10003ec8e1cce7a32ad08a3a910e7b77",
        "ba85d5611e0ab240ef964686c56e1a9cbd6adb91922617dc2a346f607492f96b"),
    "cold-2-1": (
        "96bce117eebb80de0957e9bcf4db8e67df366425fa19112cc3bb2f2547dbf51d",
        "cd1bf24fade18dbbd8a413ebe3e16d1a10003ec8e1cce7a32ad08a3a910e7b77",
        "2f8a6982d3e59a7b34b3744fee4fdfbbda5b431c75d9478cf0203e54867c8880"),
    "cpu-prime": (
        "cc26ded8cf212d4a8b217716f5785a8e2d252502fa626081e192b0b3b9ebd724",
        "b5e2ddf46445fe6c48b5fcfa3fc05642c7dbc052fc3c59926dc36b21e8c77ba2",
        "6120738025037794da702888dc35654ebaff3ae1249aeb26d600472fd6e8ae34"),
    "fileio": (
        "5d976f8150fd8219e74e485188104e857d3ebfa4378c2b7ee6115d16975f259a",
        "edaabea27b84ea44eb40383f12be4418f30b8f018fca92c74261d0540576a825",
        "f5c8b53dfa980d3729442d21b2ec2488ac42e5645e61cd72fa21ed314fc3b0bb"),
    "fppoly": (
        "5d2fb445cf62ce5d7f07e76d980f45af4ef8184347320d2505429feae046e57d",
        "be50cdaa898a8ca5c382d2f20413279a520120e9b0d371b4c39713d96f6c0deb",
        "e0aace4258f40343ccfd871c6adea871a29e83573389aa00b25e55a850ddff12"),
    "fpstencil": (
        "ebbec5f0e4183b10fd6631d30d765d71037305e9ee5b3dd626c5904da6ca6d90",
        "6da8220d66cdd061ae950b360a5419dcdfe3cc03998f66883e1b718a4a9abcc5",
        "53bf9a4990ff755da3069e67ee369d7a105a42a2ca22e7dbc574c86275f51e3b"),
    "gcc": (
        "ac245f1b0edf8474646ed4392e343724a5a769fd571edf72136065069f804ad8",
        "ee48eda946f90d7b1f6785974f0743270684691453b2582a8d8e583b5f516afb",
        "3ba755f408d58ee72b451cf7fdb54dcd3731c5446ddb2809f1d2f862ea5d7930"),
    "gobmk": (
        "2ed96117b5a1a9ce1d35fecf3bd51ffef9c23b903206725d652cdc8815d59a0f",
        "a759abe535a990d1d6c90cceb33b1511a4caaeadbc4838ae8b5cd7b27f05f0a5",
        "a74afbc5e0ff039d89092468abc89f0eef521a88fa13d9f67b0f9103a932c044"),
    "h264ref": (
        "aa3815939ba53e5d97936a3a5c1376cad98db51a3127442258a067d7a7d207fe",
        "7a520e1bc0754cb00281bd597422bf7bd7218a9bab3cc4fe18f66f6eae6900d8",
        "6b73c5cb45ac710ed61c3812b7208dde321de235fb9fa8969ae2781847e4da0f"),
    "hmmer": (
        "f41421045b517c80f95590b7b86b2a7a2b2fb33b24b1bed80531edf5ad9ffdaf",
        "dc877ac3f3af21a9a7138868abdd4c56d5088c1e89df0612513c334af0ac3be5",
        "c7b3c4a01e4d1df087a22141c62f0446450794212770eed7fe1b850568d89afc"),
    "kernel-5000": (
        "a22691ea5e0cf8e6faf9cc52d976c99da34966c6cba3c9bafb91a2cc70cec5fe",
        "4a0474271f486cefb9249c855c0d171d74ce9cf7adb43440565d3e83dc8d64e1",
        "e8840b6f08203f71314f114e4d409848d3bdf9f3554a0cf9b473b9ca4fff3978"),
    "libquantum": (
        "acdad98bf00111bdccf8d14cc3bfdca6239bd249e546188e66ed635b27402397",
        "4aa2550a2b9b969f04e5d4fedb4aafbb15e3a10352bc2d66124b8694d7da8c83",
        "90e41bb81c55a86d38f6f20b5de1b04e27fd27cbf8cd1be0afabba8f50184da0"),
    "mcf": (
        "87fb76fd6e2b43d1445e72b8d8a81fe89171606e49bea2d051e153f7c37182c6",
        "bff48baf0952e552ddb81adc932eca054b0e1df187fee904aba142aded3b02d8",
        "b0ca58e12c0f1c85260dff9ac74d2f896c0606a91340cea0812967185e8a889e"),
    "memcached": (
        "8641c70a383c30d54c121573dfa1d676d21270b6037dd6cbbd95bffc819791cc",
        "8054e7738b72c45334a5dca9ff4f18468f995530b0c2a090834bab853edb3901",
        "31f3f571334fd4aaedaefc0659df3222eff1d64bbcffb088b791b9bf098b03d7"),
    "omnetpp": (
        "5de86ebb5e5e7e29f1ddbd59267cb3e3a2d75cd80a77aa38a82eb29e1419938e",
        "54da8bc38b67478c07807b1c7de2eb6849739d23e5cbb61dd1f1c459d7ff6656",
        "178fd31ade1132e96d33949344a69dd5edaf1e6e00e34840c1c16de77922c55b"),
    "perlbench": (
        "b539a89f85aa66c2dc8e058d6cf352b38170cd91e0c2a688c84c118363d3f373",
        "256af33fc67f3426e1c2394a5e47a537020c9fdf497a5324a7a524d6a152bd23",
        "9edc7305f041a886a46f40495c8d319a51bdf1255b180c73ffde9a3c0390634a"),
    "saxpy": (
        "4293bccdf12e947b21d3f62951ff80244d2b77ce69b08b00c3a11f90023301ff",
        "9c0cfe81c2dcdd4775e8150bec53162e549ca1d4fa5dba7cf08fc6b09eeb08e1",
        "8fd121e03ab88032d6d093fb8987dc6e44747a034102ef2a97a170db4d36450b"),
    "sjeng": (
        "f2d4a806c350cdb2eee1b9e8af01245b67bd24bbfbb3036ffa360d51fc5fc1ce",
        "7aac4c75ce63a7f2e19683170efb91b917fcddcdae7a2edd99cb86280b044944",
        "e6d380dea5fa7ff4b6229c86080762206038aa1d9da7b3ffe063aa504991f938"),
    "sqlite": (
        "0475e70485e516d1eaf51d69e1a26f7a716ac50ee1299d0454ee7806c173c035",
        "cbae4065a5d45fc0ab4f884f7493d12f3ead7293b7f6c4285c96d8d747b2fb59",
        "8495ba65cd62384a43eb5bd8dcf5411297c5e9ad00b0055012c0e2010473d4a1"),
    "untar": (
        "0f769045450cd4d1647f104ad3b57e65e9eeeef597cdde77e44275d6eaba2a0f",
        "d930fba50f7943d54d98a47eef051be7ce9c02c0dc8f38d460522eb29096f492",
        "4ad4501320a9b7895e030ae6f15d1637f4ac9899b63ba64f8e714ec3d22d2f3d"),
    "xalancbmk": (
        "d90fa3f00dbe293e9c4456c110c2d1590b921030879c0abe116190988834844b",
        "54a7ee3c36c8a0e3fcfbc6d6aedd4e11811553b27648c28188d700011dadefde",
        "958b588027627dc8c4236a8de26bd224dba9e17f4b33bbdddedf0dd36e811321"),
}


def _digests(program):
    def sha(blob):
        return hashlib.sha256(blob).hexdigest()

    return (sha(bytes(program.data)),
            sha(json.dumps(sorted(program.symbols.items())).encode()),
            sha(json.dumps(sorted(program.listing.items())).encode()))


def _build(name):
    if name.startswith("kernel-"):
        return build_kernel(timer_reload=int(name[len("kernel-"):]))
    if name.startswith("cold-"):
        _, seed, index = name.split("-")
        return build_user_program(cold_code_body(int(seed), int(index)))
    return build_user_program(ALL_WORKLOADS[name].body)


def test_golden_covers_every_workload_and_kernel():
    reloads = {workload.timer_reload for workload in ALL_WORKLOADS.values()}
    expected = set(ALL_WORKLOADS) | {f"kernel-{reload}" for reload in reloads}
    expected |= {f"cold-{seed}-{index}" for seed in (1, 2) for index in (0, 1)}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_image_is_unchanged(name):
    assert _digests(_build(name)) == GOLDEN[name]
