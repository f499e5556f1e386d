"""Golden CLI corpus: exit code and sha256 of stdout for a fixed argv list.

The digests were recorded before the skew engine and the CLI error handling
were rewritten around one shared group action; they pin the documents that
every command prints, byte for byte, in every format it supports.  A failing
case means the output changed, not that the digest is stale.
"""
from __future__ import annotations

import hashlib

import pytest

from mckay import cli

GOLDEN = [
    ('group-info --basis 3,0;0,3 --kind A --format json', 0, 'a66414ea1a2b9fd3727a9a9efa9442d9bbbce8f221d5f1537ee5778cd099e6da'),
    ('group-info --basis 3,0;0,3 --kind A --format text', 0, '0687bfa3d7b0ed775b3878eb4b2a9f5794eb3fa6950d40b3576b7a07251d1d9e'),
    ('group-info --basis 3,0;0,3 --kind C --format json', 0, '199e20fee0ae11cb6349b5da028d9e52ba0c4fd60c649fcdb7009b2575a20e60'),
    ('group-info --basis 3,0;0,3 --kind C --format text', 0, 'db06f31e3f20c45dfdd53b1972ea40c950d4c308d21ddad93ad149e3eba13cbf'),
    ('group-info --basis 3,0;0,3 --kind D --format json', 0, 'f9b25df6658fdb719d8f96d09fec13d052f7dcc793753681c20e6a6851087cb8'),
    ('group-info --basis 3,0;0,3 --kind D --format text', 0, '3d8b4c22ee8781a2ddde45658370dc2db364c0e4503ffac8548c9ba4a4b736e5'),
    ('group-info --basis 2,0;0,2 --kind A --format json', 0, '36e6ce11ffb73f8dc8e5c0b8a016a95368a83e47c1a6eb86691e448a0d6c1084'),
    ('group-info --basis 2,0;0,2 --kind C --format json', 0, 'de212346c71708b5fd97ce53c7fa65aebd0b6b568a52eab61fb72a5c0f925995'),
    ('group-info --basis 2,0;0,2 --kind D --format json', 0, '0b83d1ea2abb00db68777b6399425f527fab670562710415a6a86224c8522eb8'),
    ('group-info --basis 7,3;0,1 --kind C --format json', 0, 'e50b65e41a1956471695df3993f8ce97ef933381721df0724c905f8cabcf6fb6'),
    ('group-info --basis 2,0;0,2 --kind D --root-order 4 --scalars 2,2,2 --format json', 0, '4deda03c8a1fab1c2ff3034dbbb100ba31ad1746205e8e7c226ce5844e1b2fd9'),
    ('group-info --basis 2,0;0,2 --kind D --root-order 4 --scalars 2,2,2 --format text', 0, 'cafb372f3d6bd5799a9f3fc8c2d623bc137dc0dc023b02ce9051553cfe12646e'),
    ('group-info --basis 3,0;0,3 --kind D --root-order 6 --scalars 1,1,1 --format json', 0, 'bc1aba24b42d0db7341565ac32df2fd045ca9852452bc61bd64b1a2d6a59becc'),
    ('group-info --basis 4,0;0,4 --kind D --root-order 8 --scalars 4,4,4 --format json', 0, 'ee5ae2ad10cff1824b1572443de0e8780cbaf90ce5c235e1324d55e0b76583b3'),
    ('group-info --basis 6,0;0,6 --kind D --root-order 12 --scalars 6,6,6 --format json', 0, '52d3e555714ddbb86aa377113f1d7f3c4e350fc79ad83112e8f06b8546128099'),
    ('quiver --basis 3,2;0,1 --format json', 0, 'a07ad7bfb1b39ad59bf0ab5fd05e00167441ace114a87e4a95f0c2ad25ae07f4'),
    ('quiver --basis 3,2;0,1 --format dot', 0, '7ee5dd943b2ed0853adda569dedd4caa60c81ca60235b0786d029daaaa5c333a'),
    ('quiver --basis 3,2;0,1 --format text', 0, 'ec4f743a46b4d6f9791c00efd0bd664a66d68fe4fe958920998a9b2d162986d3'),
    ('quiver --basis 2,0;0,2 --format json', 0, 'a4fe03a08592ca7aa31d8752fbd3d962e6786bedaeab7e2f118bcecada9831e4'),
    ('quiver --basis 7,3;0,1 --format json', 0, 'd00fd2b496dc57dfd15a42d7b486e407f7e6251c8c53bd5e4783b441ad3ef311'),
    ('cut-exists --basis 3,0;0,3 --gamma 3,3,3 --format json', 0, 'd63da86782f26931b5f8ed249ee77981ee1d5f9a6667e9655345ddfece1e4ad7'),
    ('cut-exists --basis 3,0;0,3 --gamma 3,3,3 --format text', 0, 'd0e685333f7fdf7bb5a3664a5a7d012e3328cffbbbf11ab640fb4a4276b6abd8'),
    ('cut-exists --basis 3,0;0,3 --gamma 1,1,7 --format json', 0, '937736d0b80ef46eb6e4816eda7629387b32247b2f0b0b7542956bd3ff51214f'),
    ('cut-exists --basis 7,3;0,1 --gamma 1,4,2 --format json', 0, '7051a8a7d563146aead374a6b50a84393b77c1f70181bdc2e3eef4932e0f4448'),
    ('cut-build --basis 3,2;0,1 --gamma 1,1,1 --format json', 0, '3b6c7ee85a8eb8b1e629450542721e6a9207290498079240662d0732b2056404'),
    ('cut-build --basis 3,2;0,1 --gamma 1,1,1 --format dot', 0, 'bd8b83157521cb518de9d6610c0c775b64a7df1f2ac449e5526c1ccb24a6d0b5'),
    ('cut-build --basis 3,2;0,1 --gamma 1,1,1 --format text', 0, '804eb2af6be438df8934206e5514d078397a5652c4b001da78357543f173909e'),
    ('cut-build --basis 3,0;0,3 --gamma 3,3,3 --format json', 0, '44d3342c6361fd2124953e110bba8155b54f3ed8e67ea7e6961c9068edb37075'),
    ('cut-validate --basis 3,2;0,1 --gamma 1,1,1 --format json', 0, '4c757eeeb2ca281b119d58fbee90cccbc518edb2ef4e7803a26c3fcd85beb93b'),
    ('cut-validate --basis 3,2;0,1 --gamma 1,1,1 --format dot', 0, 'bd8b83157521cb518de9d6610c0c775b64a7df1f2ac449e5526c1ccb24a6d0b5'),
    ('cut-validate --basis 3,2;0,1 --gamma 1,1,1 --format text', 0, '41b90d2f33bd76080e719cc18e7ca7ea2f02e9f295367d45222a63e6102bd39b'),
    ('cut-validate --basis 3,0;0,3 --arrow-ids 0,4,8 --format json', 0, 'a7864dcc948eabe3e33d48bbc883b43bf109ec6212eca2eeda386149aa36b30f'),
    ('cut-validate --basis 3,0;0,3 --arrow-ids 0,4,8 --format text', 0, '74afeddf1e99e56d669d79fd0d3e6ec05add1b77922196f5ada82c62c2d16c2b'),
    ('cut-validate --basis 3,2;0,1 --arrow-ids 0,1,2 --format json', 0, 'a088e3d3c22ce1ee6e3feaed9ae4deb03db9debaeaef04329790edc5bf627172'),
    ('cut-enumerate --basis 3,2;0,1 --format json', 0, '56a506ce4c721ea3fd82fc54188c6e91a552f6f9789e50e8d29f723df2e99143'),
    ('cut-enumerate --basis 3,2;0,1 --format text', 0, '839daa01579a25dbe3cf954c2c01328e8655f9e012fbc796177d99b55143f90a'),
    ('cut-enumerate --basis 7,3;0,1 --format json', 0, 'eb603f3a235d42a9138a9e13bb6b06071ad873067843bbd18f7ee968c1893822'),
    ('skew --basis 3,0;0,3 --kind C --format json', 0, '0ee3536541b92392af90a4982e3ae2945b6dffd875aa0722a635af85a5c12512'),
    ('skew --basis 3,0;0,3 --kind C --format dot', 0, '702aca2c9f9f77f32594a5fa14324991865b09b8431e5162b2bfa9c3abdeeaea'),
    ('skew --basis 3,0;0,3 --kind C --format text', 0, 'fd19d1a2a25d206425024ef33e4d754dae1db67157759396f04ac8adae37bff2'),
    ('skew --basis 2,0;0,2 --kind C --format json', 0, 'ac150544e7d51266a2c96f72f219b77df5b8fb9d7d58bb279e87448cc5963bf4'),
    ('skew --basis 2,0;0,2 --kind C --format dot', 0, 'e5e1eb16e34a02624d9a4b185e764757dd49f50e164f2203c0078b66d31d8d04'),
    ('skew --basis 2,0;0,2 --kind C --format text', 0, '33a28431f9b81408d3b432b22ea0de332bd43f8b3cf3580f0f9bcd7ddf4b2f27'),
    ('skew --basis 3,2;0,1 --kind C --format json', 0, '41eb340dda4f44c1ceff60009aa1e93d5d47240d6573911e15e0ee53ddfa9203'),
    ('skew --basis 6,4;0,2 --kind C --format json', 0, 'cac00d254398067eafcf6e8fc45ee02ca406eff4267a3c739d8482eeee6c96d2'),
    ('skew --basis 4,0;0,4 --kind C --format json', 0, 'b0d0a31d4c337f35a89edc1ce4a3e26456bd3201c583cf403e1b4a84dc024821'),
    ('skew --basis 3,0;0,3 --kind D --format json', 0, '50de27234d74f49a04d9b9f89173d102a20f8e808ef22891f0097253186ab2dc'),
    ('skew --basis 3,0;0,3 --kind D --format dot', 0, '361417d8b7ee6cadd0fca0add8fd30a0add0892e54f622ff56b700d07f5a1334'),
    ('skew --basis 3,0;0,3 --kind D --format text', 0, '653996fdff82398dcc19d7715f5c87c0d212aa8472acbcbc9f029a596d0374b7'),
    ('skew --basis 2,0;0,2 --kind D --format json', 0, '3a6ea8e5026c2f5ac1afa4b73e180a97847a75fc7567788b5c0c703d93b02975'),
    ('skew --basis 2,0;0,2 --kind D --format dot', 0, 'a81706f80ce21de9524df7d0340b4b3906dc1f39e14d8be8557768e05b90a098'),
    ('skew --basis 2,0;0,2 --kind D --format text', 0, 'dd0b17b8e848addc5dec2725dfb51e428c7e742425d05ec1e229fd995bca8e14'),
    ('skew --basis 3,2;0,1 --kind D --format json', 0, '4eca3a4edd4261423a08c803bdb03297dfbb44c538edb10e31b614df37004596'),
    ('skew --basis 6,4;0,2 --kind D --format json', 0, 'c2e6e5212cc9b5b4388e20ff6ecb184e2b3ee346c6ae88769bd043ca50f5d765'),
    ('skew --basis 4,0;0,4 --kind D --format json', 0, 'aa7388ba7270dd17b729d376088d813f09d47509e3a49a4d33907fd052808a2e'),
    ('skew --basis 7,3;0,1 --kind C --format json', 0, '65548cd864a446032deb407607218e2609ba2bd81138a58daf81a78f86dcd9cf'),
    ('skew --basis 7,3;0,1 --kind C --format text', 0, '59d6078c69614f21fd8e74c98d472c9156dea6903276b5302868ef7918f34316'),
    ('skew --basis 9,6;0,3 --kind D --format json', 0, '8237f0f73fe6637a96e958bcca155acd94d3a8800ce35ec27a98077030293a70'),
    ('skew --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1 --format json', 0, '7fed99440209bc8427903e1678c698fd24407b99eb9360ea34cc852ca6c3d47c'),
    ('skew --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1 --format dot', 0, 'a81706f80ce21de9524df7d0340b4b3906dc1f39e14d8be8557768e05b90a098'),
    ('skew --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1 --format text', 0, '9d81892fca4f9d5753ae52adf4c910b16ba9ad93ae6a266302ffd43cd2656f1a'),
    ('skew --basis 3,0;0,3 --kind D --root-order 6 --scalars 1,1,1 --format json', 0, 'ef6eb15ec90a24fe5e02595d623913ce7d7c830ad8ef4fd28b214288be7d4395'),
    ('skew --basis 4,0;0,4 --kind D --root-order 8 --scalars 3,0,1 --format json', 0, '2547f3a543ae26c10daced959a65a15abe9c7def11c7de3b48dfda10aa6455f9'),
    ('skew --basis 6,4;0,2 --kind D --root-order 12 --scalars 1,2,3 --format json', 0, '10e7e60867e1ebadd488585b74cb2a255dc7450f348069c504b3211d6cdb4525'),
    ('skew --basis 3,0;0,3 --kind D --root-order 12 --scalars 5,7,6 --format json', 0, '2b11a74dce2ec5d4da32c343848cd93d81d482a1a5164a811a4f496b664babf6'),
    ('classify --basis 3,0;0,3 --kind C --format json', 0, '79c3ebb85d3d5c5920d52e5d15c22171499e740d0c263cdfe5e51f366ec596da'),
    ('classify --basis 3,0;0,3 --kind C --format dot', 0, '10272b03b2ab150c5becbca781f884173672f5371cfba35a830b4ad16390caf3'),
    ('classify --basis 3,0;0,3 --kind C --format text', 0, 'e1f7d67e3df03570f7ef035d85533c1d76a9e9e736b08b738ffda661d3c5b410'),
    ('classify --basis 2,0;0,2 --kind C --format json', 0, '71fcda00240c43e3d2d512c6bbf5af72776f1244fc98dcaf6376f5138899e7e1'),
    ('classify --basis 2,0;0,2 --kind C --format dot', 0, 'e5e1eb16e34a02624d9a4b185e764757dd49f50e164f2203c0078b66d31d8d04'),
    ('classify --basis 2,0;0,2 --kind C --format text', 0, '2bcd86d59ce8a260b58e9f8bd07251ff81f7cea36ae48dcb490cc8fc079f9b08'),
    ('classify --basis 3,2;0,1 --kind C --format json', 0, 'e648a30a5da146ca1975ab55743a0de164abc36d7e981041e25def71adf6f845'),
    ('classify --basis 6,4;0,2 --kind C --format json', 0, 'e0cea40d9dede41b58c6e2c73508342435bc6a0f0ebc137e4154c117be92ee62'),
    ('classify --basis 4,0;0,4 --kind C --format json', 0, 'c92cd431475fd6c104927d5eaa8a80de76080615b767bace6c93e05f341ee05d'),
    ('classify --basis 3,0;0,3 --kind D --format json', 0, 'c2b30f37ff76965d631f981679afb44de24cd9aebafbdbe79b55ef7434b46c55'),
    ('classify --basis 3,0;0,3 --kind D --format dot', 0, '56991c8adb0ce0d881c3a73576d5575315aeccd547ab6d814c5bcc5d52db5094'),
    ('classify --basis 3,0;0,3 --kind D --format text', 0, '420af6aa936001624b4dacb957e216601f12f51ba456232811daa4619b7ef89f'),
    ('classify --basis 2,0;0,2 --kind D --format json', 0, 'd0decaf2e2e53e883643ee3a730fbf0fde486bbf7cd94ff61e65a87aa19631e7'),
    ('classify --basis 2,0;0,2 --kind D --format dot', 0, 'a81706f80ce21de9524df7d0340b4b3906dc1f39e14d8be8557768e05b90a098'),
    ('classify --basis 2,0;0,2 --kind D --format text', 0, 'b35691b3643dba387f9bcda5d6e70bf58c104176ad63f8b97b0609e7a5676bfb'),
    ('classify --basis 3,2;0,1 --kind D --format json', 0, 'ffcb42c033e22a25cb8774f2b4dea03207801ee1d0be2676baf4e91b6f707aea'),
    ('classify --basis 6,4;0,2 --kind D --format json', 0, '2674ca94b881f2d8f653b94d09a6b87afbb2b531e4048a53dd32f6f7521f5836'),
    ('classify --basis 4,0;0,4 --kind D --format json', 0, 'b6002da0c0fd29e27f8041d255a6fa7d771c0f7571292a5d2ed83a89ee1fb2d2'),
    ('classify --basis 7,3;0,1 --kind C --format json', 0, '1bc6b04f54b7772f77c4247c6ed305e72e4ba216ab1627ea63e7985ee7a87e97'),
    ('classify --basis 7,3;0,1 --kind C --format text', 0, 'e853b00c7e40f994da513c65e5e5a6adc73faaec41f09fcb2012290e46453051'),
    ('classify --basis 9,6;0,3 --kind D --format json', 0, '7c1157bb60ee5bc4aa9126af01eebd84aa1143099f1b38916c0732e9a638b598'),
    ('classify --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1 --format json', 0, '9de7b9ddaf8114a9a7e67a6d35074cc58b647174cade7ace16c3c7faad763ee0'),
    ('classify --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1 --format dot', 0, 'a81706f80ce21de9524df7d0340b4b3906dc1f39e14d8be8557768e05b90a098'),
    ('classify --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1 --format text', 0, 'd3da1095613275e264b94297ae7453d7cb7fe19ed95ab2b0c495c1defd92c801'),
    ('classify --basis 3,0;0,3 --kind D --root-order 6 --scalars 1,1,1 --format json', 0, '3169e26634fedaa79a61304d4f33dd596e1595312479d6884b6fc4cd0de30f6a'),
    ('classify --basis 4,0;0,4 --kind D --root-order 8 --scalars 3,0,1 --format json', 0, '100f8791dfcbf38efaf14a277bd93d7b023801acd330eaec83c13587e6b23026'),
    ('classify --basis 6,4;0,2 --kind D --root-order 12 --scalars 1,2,3 --format json', 0, 'cdb300778396dc18ccfa769dc7dae45f7b7c88867a3b54c630aff0c1987de713'),
    ('classify --basis 3,0;0,3 --kind D --root-order 12 --scalars 5,7,6 --format json', 0, 'f9e4d3bc2836be938ae224bdc1b0229ec925ee7afe30be1dfed4e5e5731b65cc'),
    ('unskew-roundtrip --basis 3,2;0,1 --format json', 0, 'b2665faa1938222e67f4d8f0c4148aecb40c312c197f0f2521906708aa74d463'),
    ('unskew-roundtrip --basis 3,2;0,1 --format text', 0, '1f9c02fb66bca5eb9a5fcb1fa37da99ab5a007d4c292ab4cfbf1cdcdaf80c143'),
    ('unskew-roundtrip --basis 3,0;0,3 --format json', 0, 'f3a2425032ac838bea3acf3b0d9b64d610191cf6f69c8eddd6f02745224c72a2'),
    ('unskew-roundtrip --basis 3,0;0,3 --format text', 0, 'c767f62f5563164e19fc50c0b249637627da8c0f0a14dc0c52c48c8483770f98'),
    ('unskew-roundtrip --basis 6,4;0,2 --format json', 0, '1889ae1e61333559c477e1aebaeaffb1c2401b8754b4ac718979ec2e4090ce87'),
    ('unskew-roundtrip --basis 9,6;0,3 --format json', 0, '3b6ab47730ea0cc1b2052510278cec7af4454b189165cf2fc8dd6076645e77f5'),
    ('oracle-compare --kind C --max-det 9 --format json', 0, 'baac4669b7844c5e44671383ca4b020b017ce7848ee8122605997dd71dfe1072'),
    ('oracle-compare --kind C --max-det 9 --format text', 0, 'bd41c4731a87aa3b30fd3c312f0bbff6e6343faa089c6b3fa22fd3be68e516f2'),
    ('oracle-compare --kind D --max-det 9 --format json', 0, 'ed66d942f6c9f780f5a24aad68edaa875a91a197ac66d3f34fd1ff7b42039d30'),
    ('oracle-compare --kind A --max-det 5 --format json', 0, 'e9211dac8fe1ba1be64f56ab5556c8067ec2a17a6c1aa67778ef7a6cdbde9956'),
]

# Documented error exits: checked by exit code only.
ERRORS = [
    ('group-info --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1', 3),
    ('group-info --basis 6,0;0,6 --kind D --root-order 12 --scalars 1,2,3', 3),
    ('quiver --basis 1,2;3', 2),
    ('quiver --basis 2,4;1,2', 2),
    ('frobnicate --basis 3,0;0,3', 2),
    ('group-info --basis 3,0;0,3 --kind D --format dot', 2),
    ('cut-exists --basis 3,0;0,3 --gamma 3,3,3 --format dot', 2),
    ('cut-enumerate --basis 4,0;0,4 --limit 3', 2),
    ('cut-validate --basis 3,2;0,1', 2),
    ('cut-validate --basis 3,2;0,1 --arrow-ids 0,99', 2),
    ('skew --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,1,1', 2),
    ('classify --basis 2,0;0,2 --kind D --root-order 3', 2),
    ('skew --basis 2,0;0,2 --kind C --scalars 1,1,0', 2),
    ('classify --basis 5,1;0,1 --kind C', 3),
    ('classify --basis 1,0;0,1 --kind D', 3),
    ('cut-build --basis 3,0;0,3 --gamma 1,1,7', 3),
    ('unskew-roundtrip --basis 2,0;0,2', 3),
    ('unskew-roundtrip --basis 7,3;0,1', 3),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    assert cli.main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code", ERRORS, ids=[e[0] for e in ERRORS])
def test_golden_error_exit(capsys, argv, code):
    assert cli.main(argv.split()) == code
    capsys.readouterr()
