"""Report bytes pinned by digest.

Every orbit representative at q = 4, 8 and 16 is moved by one fixed
projectivity and sent through ``classify-plane`` and through
``classify-net``; the sha256 of each report's stdout is pinned here, next
to that of ``verify --suite distributions --q 16``.  Any change to the
classifier that alters a label, an invariant or the report layout shows up
as a digest mismatch naming the request.  The ``verify --suite
line-orbits`` reports at q = 4, 8 and 16 are pinned the same way, so the
group action behind them cannot change an orbit, an order or a count
unnoticed, and so are the partition sweep at q = 2 (orbit sizes and stabilizer orders)
and the double-line sweeps at q = 2 (every plane) and q = 8 (sampled).
The ``verify --suite known-net`` reports at q = 2, 4 and 8 and the CSV of
``atlas --q 2`` are pinned too, and the JSON of ``atlas --q 2`` is the
partition report's bytes.
The unmoved representatives at q = 4 and 16, sent by label to
``classify-plane`` and by their nets' form strings to ``classify-net``,
are pinned as one digest per command and q.
"""

import hashlib
import json

import pytest

from conicnets import atlas, cli
from conicnets.action import act_subspace
from conicnets.gf import field
from conicnets.veronese import form_to_str

# Invertible over GF(4), GF(8) and GF(16) with the default moduli.
MOVE = (2, 1, 0, 0, 3, 1, 1, 0, 2)

PINNED = {
    'classify-plane q=4 Sigma1': '6d4cbbada8c274eeb3f2962691f40b6e718a32a5881af42970327ac8e2fdf183',
    'classify-net q=4 Sigma1': 'eb365bd123cdfb5ac7708849cef327aba09e4b6ac44bd275f95ba6cdedc6529c',
    'classify-plane q=4 Sigma3': '75af2a6f1c6833576556931c9961534817ad0f62b7e7fbd2d17e3fd8adf4c04f',
    'classify-net q=4 Sigma3': 'f0c52eececcf35bb120feaabb0da8dba2a66f5f0e109ab965cdfdd8b3ced5843',
    'classify-plane q=4 Sigma4': '4a37899242f817ecb6db002b707f2c47ef28657021b04bc8f9c13394e06a1a60',
    'classify-net q=4 Sigma4': 'f51c476dd202d4fdee422995a0e41e9e1286ff72a993cb3693dca8e0946d3061',
    'classify-plane q=4 Sigma7': '831c296e4b5bec2191c0c811127153752c73a450ba3ff1d191cc412dcc46889c',
    'classify-net q=4 Sigma7': '9b9eb8fb881e1a188864e663e6f9fd78b5b51a809d8292bffb735aeb33fb434a',
    'classify-plane q=4 Sigma8': 'b32292c74ba6c1f8713f553e5c987ef9e56994dbcde397613b3d8c1206d44ae8',
    'classify-net q=4 Sigma8': '5aafa42fd32b273cca72e41c9d1b904a8355147f4860f4acf01d13138216039b',
    'classify-plane q=4 Sigma9': 'd0ab2c54b0abfc2b169ebe491b7f51e55cd36d6b218d1b1c47dc655c95274ea2',
    'classify-net q=4 Sigma9': '91f7015bc650d5606e11523c85819b41918d8e51d9760e5e4848b6932e952b35',
    'classify-plane q=4 Sigma10': 'b1120d2b16284ba2d7652ce2fea71cdce93652b5a1f9e3bd41dd179ce20e891b',
    'classify-net q=4 Sigma10': '7cd5ed0f740be85c28838166732442583bff2f3ab9e8304b9f32c069576a37f0',
    'classify-plane q=4 Sigma11': '783672366800e2cc49e17ecba6329fdfd8b6c04f3093922592846162bc874a26',
    'classify-net q=4 Sigma11': 'a14e8676838367bc65fcf7a0145ab552042bacafc898a946f8e48f4200527d6e',
    'classify-plane q=4 Sigma15': 'a5e05af09cb219673dff3578a3a2d2bef0d093287b1493b26adfccb6921aa911',
    'classify-net q=4 Sigma15': '94df906d8d7c896ea2e48d9d5540d900594405df09625587208f65c3adc63da2',
    'classify-plane q=4 SigmaN': '0405a072ffb90255d7241fbe5fbcc9c6bd16d03dee5d3a4eccdc37196d7c175c',
    'classify-net q=4 SigmaN': '9adcee82fdc8eb3dac20df55a59749eb64925a1d50d1106aefa9573d0dc7afbc',
    'classify-plane q=4 Sigma16': '0e4ca2d8d057703e40d77b757d7558d9cbd182866e66c12bbaadd4d29b9cb297',
    'classify-net q=4 Sigma16': '8a21031e3fd64189b666689dde88d4308bead3628571deb200a8bc3ff6553cd7',
    'classify-plane q=4 Sigma17': '2fefaf4b892971ac4779e9259134bb6f2d15618c6933737672461ff0e554edd3',
    'classify-net q=4 Sigma17': '3063f7ea2f429cf9efb025513156ac47ea7366c67ec0888f30a5a8a2ab123bf1',
    'classify-plane q=4 Sigma18': '126164b684a92ae2f7a7a903529bde649c2c26d7a0b45b94ec31c4489a806b0c',
    'classify-net q=4 Sigma18': 'b02813099079e285223975bea6b25123a7d7dcaf6805e07a8cccb59870154819',
    'classify-plane q=4 Sigma19': '9bf22a57d08ae951d98b33fa248e8b17b2bcd56d38a708f4d914a3403debe387',
    'classify-net q=4 Sigma19': '9cb55da7ad2f12d9d59f3c14263077c1c6836cc2fbdb687c6432ce10980d512d',
    'classify-plane q=4 Sigma20': '75a64006cbfdf407125ef609d7864015276fa4fef6912461383a65a402f1439c',
    'classify-net q=4 Sigma20': 'c178b2e9a2c95ff107b320f16a9e08c231d981a2c2f3508fde2c3f6a6ed149e8',
    'classify-plane q=4 Sigma21': '2b5a90a7af7a25bd4f1b3f943c0657ee233cd519017a5a9504c36e927a04bd57',
    'classify-net q=4 Sigma21': '71c6a105b994b8e59fae53448662f4d8df6256636496d1b759ba6b30cf81473b',
    'classify-plane q=4 Sigma22': '2bc0fdae05b8788d6de163dfaad340d5a98bc9514cbb9e15d8113191352b8ac7',
    'classify-net q=4 Sigma22': '7f871542042989451661ebfab8e3fdedbdfd805578ca81aee883952551482405',
    'classify-plane q=4 Sigma23': 'e45fc6a4c6f1c8a61c1d74ed8fe0f4eb6f3f396b0f3e94962b358c07cecf3f7e',
    'classify-net q=4 Sigma23': 'e53efc3ef797314f7d03231c5d4e9674bc481265787f92e066564093c00a76a1',
    'classify-plane q=8 Sigma1': '0e0bd3a1ee2415331c0762e140dcf7d75b7f49b412fef1542bbfc47123de0123',
    'classify-net q=8 Sigma1': 'c71e4b48039233f04306b3049ad0d67b02afb62b8d55a31772d13ab52ab43814',
    'classify-plane q=8 Sigma3': '28b18a57cc7b20621b74a047a80c95dd09cef4b44de509c18531dd8c36815997',
    'classify-net q=8 Sigma3': 'd3071d2b1ae13570c2b3c794c0e27551b9781ad50d11135c487ab0b8ee5f013d',
    'classify-plane q=8 Sigma4': 'f2ab0d53dc9e0ff66fb27b2c4e2d158624dc0dcab415dd3452e2cdefb205a06c',
    'classify-net q=8 Sigma4': 'a93cc8ad2f2ae6245ab6821745f62bb38aa98b5e2a663df335379617485c0e07',
    'classify-plane q=8 Sigma7': '6f93016bbbc1091c36d8513d902c0b531fedb39969550041dec5b077d9229e5e',
    'classify-net q=8 Sigma7': '8ac61ce713334786ed617a4ba137c54b42b08e72d01aea85a8993c518b252cf2',
    'classify-plane q=8 Sigma8': '71ce5f916bbabc116be379c755b4bb9c3120792b10096da2524fb81dfa78a18f',
    'classify-net q=8 Sigma8': 'a00cb186878410f65fb0944ff9ca303d4a55d4d879f2af4b3f365a5cd066d9a0',
    'classify-plane q=8 Sigma9': '1bbc1e5bf9064ba7ce4c715d471ca3dd89446c81ee86b8c4702c08fb887c6c42',
    'classify-net q=8 Sigma9': 'b5bd59cd2c6a1a7075d62cc62cda774c5383d032d985a79a56532c588d2ab769',
    'classify-plane q=8 Sigma10': 'f4ed46674f453c6210a781ed09b3369b61f6ec6c7e7bb066b19f46114e82d700',
    'classify-net q=8 Sigma10': 'd0cce80d689a176a57425d551b33dd1f19f48f5a661ef069423465c81d561574',
    'classify-plane q=8 Sigma11': '51a45ee00fb15b138307993d77693e9ccce7c34e2c19638bbd9ac2da76baf15b',
    'classify-net q=8 Sigma11': 'f9cb4148b07dee8f9bcfbab6b5c4a4ce3cd3c25c05b03e8ced0fd7534b6e24d8',
    'classify-plane q=8 Sigma15': '8fdd499541dc11d365578d8eac2127dd2c08aa5da964b9bd24ef47829a0b4a79',
    'classify-net q=8 Sigma15': 'b35441d69b9f5899df837b7ee071bbc8e00abc2eba9b77255bcee341c3a13a99',
    'classify-plane q=8 SigmaN': '554fe6f4c1999cf5e24fe65dbfcba47b6ef73b0640fe76aa38e8052cceb033d6',
    'classify-net q=8 SigmaN': 'c2cd8642b19fefd9a883ef724905c57eef8b14e85028cd2824c1738f6af449e0',
    'classify-plane q=8 Sigma16': '2d5e81456bc26d6adeb54d438992f2166e386a42c4fc18e6d31c27e345964db0',
    'classify-net q=8 Sigma16': 'd3ce79488cd42079f4b08626615d254af3613689732745aa7ee352bf4d2999cb',
    'classify-plane q=8 Sigma17': 'e1472d6f9eba205a385be577f3638688ce70737d3755ce5ebfdc48eb0e3678f3',
    'classify-net q=8 Sigma17': '6de7dfbe6341af04799eff3ac6cb214a144a13c5f2a0ea79dae0e2753706183f',
    'classify-plane q=8 Sigma18': 'cc80d9f6d872e656baeab4694f43f34dbb9be7b421c4338c1a77daf1adc7c09d',
    'classify-net q=8 Sigma18': '3789da378cc133267a0f321921e53af4c43bd0b94a231873aacafef77552e40e',
    'classify-plane q=8 Sigma19': 'a7b6abf2f6fa31fbedbfee6c5b7758d07ee742a5684af572127eb1c1ef868cb0',
    'classify-net q=8 Sigma19': '4f2010d6f7153a6ee7920856297f8f62ce988189552ebdd04d6029deb838feb5',
    'classify-plane q=8 Sigma20': '20e3d672aa4359b317410dd22bb936a0cec94d1d5d2816e7dadcba7236981e13',
    'classify-net q=8 Sigma20': 'bede3fc70ae0cdb0a72dc736f5701e8dc913191904be34753cfd5efbf0ebb9ea',
    'classify-plane q=8 Sigma21': '8cfad9d1112659551fc30714d585c89d1dbc7369116ac02e3d6f8572f9ec8378',
    'classify-net q=8 Sigma21': '4a866ee21f5bce77e13c67fe6b4aecefa435b31578cbdae86e49266cd66b319e',
    'classify-plane q=8 Sigma22': '10d719d4aa36b3d58364668f22938a69424d6205f3ba759191c66ec371884ef6',
    'classify-net q=8 Sigma22': 'ed34c53e95211ff72d0d5e5ea27da026a2e490e49bee145dc4ae70f1131fef2d',
    'classify-plane q=8 Sigma23': 'eb9af2fb03e3cab0ad7c1f8e9b3541ef634422b0b10e925da421bb767be1beb2',
    'classify-net q=8 Sigma23': '479c122fbf155331043db451adee3b9399406513f099a434743824a4209296f6',
    'classify-plane q=16 Sigma1': '0c0ba2b8e3e8f3c7d6c3c93b9961ba1ecc142d296069f521e2894d7b6017f68d',
    'classify-net q=16 Sigma1': '4b481a065efbcce9609f5b383554092f94ef8bece309d1fd412ac7b2ef3547a5',
    'classify-plane q=16 Sigma3': '2ce6e3688b6d255bef623b3f4fa91bcfbd3fe1e228892408c63601831aaa079c',
    'classify-net q=16 Sigma3': '0600d5841ca4ff23f2c73cf72046df99de1d193f09d6ad425728be8eaf84cdce',
    'classify-plane q=16 Sigma4': 'a7164b81874550a3e475d0df40f847f28b6be07786153ed6fb8e174f0e1ab9d0',
    'classify-net q=16 Sigma4': 'c524dfce18beaeb89a0e4a64ddb738f6d1b93f3d2f6a7a9abac0a61b0ff94a2a',
    'classify-plane q=16 Sigma7': '6782bdd70cd1aaa7ec1f35f553711322ec5798de6db607b5b77c58a7af67f24b',
    'classify-net q=16 Sigma7': '365bd2134bea1b2d8ae58d37c13a19c5f4ca276c7d22f70c8ec9d2f6005c2e20',
    'classify-plane q=16 Sigma8': '58cbcdf21f484e537d928cbb81eb18ee12ed7868dbc25e26d7d5a918f3214fa8',
    'classify-net q=16 Sigma8': 'cb3eab7c7845183191d0aa4aa998476d7325b4e562fdc59ac27e7085846bbd9e',
    'classify-plane q=16 Sigma9': '19044b9ae15f4cdf00e6dce56901ca4c3b9db2658c64698d9b41251868f9207a',
    'classify-net q=16 Sigma9': 'f9096dbc08b365878a14e676ee81df60b2ef0979791cb03b906b768aa8cc9fe1',
    'classify-plane q=16 Sigma10': '080eb8d0b49581188ccef768e5026e2022374f21c1c7e80b8e85036f0b7cac27',
    'classify-net q=16 Sigma10': 'b4df0d23ac6d1e5089535a616fa526701e2759d78feec37a7e83df41fa9185e8',
    'classify-plane q=16 Sigma11': 'e8cb40d57a0e1d4a9aa0a364d3a4285c306be82a5cb9aa24f0a4561ef7cbd117',
    'classify-net q=16 Sigma11': 'aa646cbcf09bfdc466fb9de255622b4808d16f799cca66a0f3a091bff15ee6b0',
    'classify-plane q=16 Sigma15': 'ad3b145b3cfbc04cf8780104d50e60e14b13af04c6abb1c923c2021a845a7223',
    'classify-net q=16 Sigma15': '854405ea90e7948fe25fbd8ca3d64e5e1c6468c0142308726d4bdf5e5a124bc2',
    'classify-plane q=16 SigmaN': '46c6ba9b8f4843ec0df2230cb71cb7e5d5d6364f184beab38c14cd6c4289245a',
    'classify-net q=16 SigmaN': '1ff9f114ff4be86271171f94b04b309e21caa9bbacb47482af2a5c89594b6fcc',
    'classify-plane q=16 Sigma16': '46bdf3e66b9a5544933beb933acb6549c7c9157c0bcd50cc49a49569dd5f2734',
    'classify-net q=16 Sigma16': '7edfb9ce7ad41170cafcbc4648b00d684e49efc5299f8289e70466719b0761d9',
    'classify-plane q=16 Sigma17': '1e5034ff155fe8e998722e0ae5166d4b91581e5473981697ded17c166e2d00ac',
    'classify-net q=16 Sigma17': '1d66facbec4574c2616119732c07af5512425702dee33efb27da4e70d3e2c6e0',
    'classify-plane q=16 Sigma18': '7999502b9039a467a59e5a793b3d96094d5806dce5c66e0ae26b38c7df196856',
    'classify-net q=16 Sigma18': '49543dbcac637d958572713819b206c91d77f77631aebed78df9e9b036c3e3f4',
    'classify-plane q=16 Sigma19': '5403a9abaa548d145373cce34adf6b8949ba012a45cd08e265439b0b7183d205',
    'classify-net q=16 Sigma19': 'a3797a405c0e14b462d89091c6b8668a0caf9c83b6ed2d1a2738270ad9123795',
    'classify-plane q=16 Sigma20': 'b018d9e10504b66d75c9868f4e4692a3c64f2080e8eea724726bc9998cdeda58',
    'classify-net q=16 Sigma20': 'd6154175f299a9a458058ada8df5fb63fd645bf80413e0335c47a2299a712524',
    'classify-plane q=16 Sigma21': 'd2106266f6928776d380b00cc6445ed4331c118316c088a8c20446cc7223cb81',
    'classify-net q=16 Sigma21': '1db37943c4c2734138b1a9dcaf10e1a1c98861b529b06c78fd66590d5b37aa7e',
    'classify-plane q=16 Sigma22': 'f794c9eba2b933ff4e234164d9d4940bf2f7a01af3c24ee076529235a7263d6d',
    'classify-net q=16 Sigma22': '2a75296fe3cfa5f04ec6ae315a1f582968550b3f278547a8fbe4ea5acbaacf06',
    'classify-plane q=16 Sigma23': '092228fab32194f94ad85d6d6b8d2090a03e59ef5c884432689e295cc8d9d6b8',
    'classify-net q=16 Sigma23': '011074752164d53c547589930a3e11f90d25cb2d966c7f61d1c00d62ed97b423',
    'verify distributions q=16': '6829a39c3dd27491ca9474b9ac41425d498f79c94fef4b9f1ed9c55c8f05452d',
}


def _report(argv, capsys) -> str:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), argv
    return out


def report_digests(capsys) -> dict[str, str]:
    digests = {}
    for q in (4, 8, 16):
        gf = field(q)
        for label in atlas.LABELS:
            moved = act_subspace(atlas.representative(gf, label), MOVE)
            requests = (
                ("classify-plane", {"rows": [list(r) for r in moved.rows]}),
                ("classify-net", {"forms": [list(f) for f in atlas.net_of_plane(moved)]}),
            )
            for command, payload in requests:
                out = _report([command, "--q", str(q), "--data", json.dumps(payload)], capsys)
                assert json.loads(out)["label"] == label
                digests["%s q=%d %s" % (command, q, label)] = (
                    hashlib.sha256(out.encode()).hexdigest()
                )
    out = _report(["verify", "--q", "16", "--suite", "distributions"], capsys)
    digests["verify distributions q=16"] = hashlib.sha256(out.encode()).hexdigest()
    return digests


def test_report_bytes_are_pinned(capsys):
    assert report_digests(capsys) == PINNED


LINE_ORBITS_PINNED = {
    4: 'd9ded9997f6ad463acf18ff4d1e5cfb2099b623b88699a1de2285aa5e0f0061e',
    8: 'fbeda6f0e07d96b1f828d17053d0ce8924776163e61d2d2f8a711e17a569ee93',
    16: '61d825c6417623904b0c34dbfec9e461a40db2b8cd5344ecd9c59461601eaff0',
}


@pytest.mark.parametrize("q", (4, 8, 16))
def test_line_orbit_report_bytes_are_pinned(q, capsys):
    out = _report(["verify", "--q", str(q), "--suite", "line-orbits"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == LINE_ORBITS_PINNED[q]


SWEEPS_PINNED = {
    "partition --q 2": '101822ad79e7132fd28a95165d92425c15751ac7dc7981ac9963a066dff32773',
    "double-lines --q 2": '22de0c77eec15fd690e1bb974aa468dcb79ac48d5f51aa6ebd38dc83c3f3f4c1',
    "double-lines --q 8 --samples 2000":
        '13823a08ab862290dc332bd8800180cf6a5c0ae894234e6cdfac9794ecc0ed6e',
    "partition --q 8 --workers 4":
        '97f25aad41446607c26777dee74a658640cec45f21d23bc81d537c15c0d3373f',
}


@pytest.mark.parametrize("args", sorted(SWEEPS_PINNED))
def test_sweep_report_bytes_are_pinned(args, capsys):
    out = _report(["verify", "--suite", *args.split()], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEPS_PINNED[args]


def test_one_plane_off_by_one_breaks_the_double_line_report(monkeypatch, capsys):
    """A nuclear count one too high on a single plane is one violation,
    witnessed by that plane's key: the q=2 report exits 4 and leaves its
    digest."""
    key = atlas.representative(field(2), "Sigma16").key_int()
    real = atlas.nuclear_point_count
    monkeypatch.setattr(atlas, "nuclear_point_count", lambda s: real(s) + (s.key_int() == key))
    code = cli.main(["verify", "--suite", "double-lines", "--q", "2"])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_VERIFY, "")
    holds = json.loads(out)["checks"][-1]
    assert holds["name"] == "identity_holds" and not holds["pass"]
    assert holds["details"] == {"violations": 1, "witness_keys": [key]}
    assert hashlib.sha256(out.encode()).hexdigest() != SWEEPS_PINNED["double-lines --q 2"]


KNOWN_NET_PINNED = {
    2: 'a5c598c77547c5f3d08be63c62c9032655f6e56c940abbb135a2ce0137be6896',
    4: '893707368144c1c3ef8c2070f92b6419921be9eb553234d92d1a12ff7eef7770',
    8: '257ff6d446bea5bfda0bc8484c9b8b3b639f0e97d3ab05da2f6aca775099038d',
}


@pytest.mark.parametrize("q", (2, 4, 8))
def test_known_net_report_bytes_are_pinned(q, capsys):
    out = _report(["verify", "--q", str(q), "--suite", "known-net"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == KNOWN_NET_PINNED[q]


ATLAS_CSV_Q2_PINNED = '6265aedb435ecbdc1503ca23b2dcab2fd08967539871b1ee8a1fd42d63ab2d02'


def test_atlas_report_bytes_are_pinned(capsys):
    """The q=2 atlas CSV is pinned, and its JSON is the partition report."""
    out = _report(["atlas", "--q", "2", "--format", "csv"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == ATLAS_CSV_Q2_PINNED
    assert (_report(["atlas", "--q", "2"], capsys)
            == _report(["verify", "--q", "2", "--suite", "partition"], capsys))


REPRESENTATIVES_PINNED = {
    "classify-plane q=4": 'a51a50af045a4e0019efcbbb1276bb7ff2ff33b678fcbe1b73fd58ab84362f10',
    "classify-net q=4": '2d6386d1f8b18a656c8bda00d1d47e2f52e846ab6478a4f9f1ae04e898d96b0e',
    "classify-plane q=16": 'ddb6832ee2846061be5daed5250004ee36c3844f40e91efeebaecebeae2e7e2a',
    "classify-net q=16": '17e36cc5987a36466be827f42260d5db887be1052727bdb15099cb2c1ca76b8a',
}


@pytest.mark.parametrize("q", (4, 16))
def test_representative_report_bytes_are_pinned(q, capsys):
    gf = field(q)
    for command in ("classify-plane", "classify-net"):
        digest = hashlib.sha256()
        for label in atlas.LABELS:
            if command == "classify-plane":
                payload = {"label": label}
            else:
                net = atlas.net_of_plane(atlas.representative(gf, label))
                payload = {"forms": [form_to_str(f) for f in net]}
            out = _report([command, "--q", str(q), "--data", json.dumps(payload)], capsys)
            assert json.loads(out)["label"] == label
            digest.update(out.encode())
        assert digest.hexdigest() == REPRESENTATIVES_PINNED["%s q=%d" % (command, q)]
