module Sha256 = Bamboo_crypto.Sha256

(* NIST / well-known vectors. *)
let vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ( String.make 1000000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

(* Golden digests recorded from the int32 implementation this one
   replaced, so the native-int compression is checked against an
   independent reference and not only against itself. *)

let pattern len = String.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

(* [digest_hex (pattern len)] for len = 0 .. 130: every padding case,
   including the 55/56, 63/64/65 and 119/120 boundaries. *)
let golden_by_length =
  [|
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879";
    "140d811b81973993df99b8b1742b383ab83f6f52bf7af850812e7bba02ff11da";
    "647674a296197442f518bcca323ec605dd8d098b2d4f22ee1fdcdd2bb753a189";
    "b999f79c534a332dfb989ab78cda3d1967c16133ca1d668cf62737f8d768962f";
    "a7fed79902b79407088f9cc6584f7506f82d8be43dc419ff5ab1969dfdd245f5";
    "35a9838ae94607ca89c07791a9682ba4a7a4ac9a30f262439c067eeb64ae2ad1";
    "13ce3403bf0ec804d44556f2fce6a75e4117680fb8791e7bc631bb7ef0d13550";
    "4fb900ca3f5832fcc475b79bf07217bf0edfe9d39ea10f5cf624246ff68b47de";
    "1a4d14ade81567725e079c6fc24507fefef27d92c7ac4086d9f74b89ef2f0aa4";
    "49e62c55d4996b5c5092f67f3ca52e954e37310cd3e07a25be69d3f1b8d2fd98";
    "b1ea037a5a2028c5faa5eb98708424f1ac7896731528711341f236d8c19cabd1";
    "d255aafa782c787b223925cbe2cc9d234ee70cea08b951f0b0c0b3f8b82e0916";
    "dc898e8ef5663ef7a22697ee877b3c4d62ac6f2a60d87187432172e46ece2cc4";
    "4327538c6f8ae469aa369a03eddf44f38c784d258bbccb6e1a571adaa0ad9d9a";
    "45d2755c5c700f214e3422972d36e5de4416645f498926ac719fae09605c09f4";
    "f087c7ff57988205ab8885ecbfca8a77c96e91b213bdaba91143fbcd62997713";
    "b6ff0191041cc77b1ef514adaed53fdd247fd43221a629d3d7c91d14e21038a3";
    "df1d155105ed3fd5a96ac0cc8a03757b8b129af594f42415eb239a4b4bc75767";
    "b8c31728a52aa1d6dc0c74c313c5920752a3e4b6aee9af80355626e46425d870";
    "3d9862867e0f08fe66a4a8060f470d25cfb1dbf7705249bc343df0ae24aff0c0";
    "fbb90f5e6853482c6429452998cfd075da3a022b888fe1656fa06db254a5febd";
    "8f98945d76a89645faec1fa8423320e1c667fe187010df451ec31aef07ac92bc";
    "e37502a8c138a926769fa31e1f8897d8c8ce9869acbc47a08228c10733bd4a7f";
    "534ed31261a5fa7479dfdf11a17fd67c54f97f709c8d0cbc7d6cede4250848ab";
    "62394da95c50caab10618ac4b91e5855e5d6070fdbc4f3fcf236ad6131552a01";
    "476f63083003ae90ee93820b6424e7fe7225295d1df672f1980cda7611c7525d";
    "c254534705c4b62acfdb7559129a2fe1f4a6357f29adb2ce0272a5850ec18779";
    "44e10749b735119d2bb8a035ab9e80feaf2d70ff0cb4ff81009a7164ea7ef158";
    "635d558662aa3a0a816409012f1ebddd3e97e5b47b104ce3cf2fa51eac6ba03c";
    "96c7f171376cadae5507a4e86f209ecae9803c573b4c12ce092cd3a406753ee0";
    "5e5f9fa56d6337115e86a2508477e87c7d5296d0b0743ecfde2d0caeed2db37d";
    "8e889f10b21cdd1b3ad72f740317a827d76e1b5b3f721e33c566f06d1deff8ea";
    "93462e85c42aa037bc727a8c283497594aa5c844f0e5bccaa52fec34dee9f44e";
    "7eacf4e83a0c0f6a275d8638bb4139f57032be7f92faf18061ab123956e839f7";
    "694e74e19ea404ce1fa456cd86a21805c1d5e3b9ddddac82049e1930f7916207";
    "1b0e5a6e99cf2857502ea95e3c9fd8623a7b97c736d2a3ea51007cc8f4e4459d";
    "1de539554304369f30c38f449ff784bd5631da1c116826ad6bf9eb941b4def8a";
    "919d8c7274eabf2f23564d1ffaff05432563380a336ad020c475ede6f8e758db";
    "4673c1ba5e3149dc9378b6991aad7fc5b9eea309128de482e41a4a26b1014253";
    "0069ba1486c68c9d9b6696145417e15d575490572a589cb90295d1d646ab168d";
    "713465c48d1af54b1ec09afeb0ff1d2c1d903e2209e6456cb1bb406feadbdadd";
    "d59b89452cfe95dea27e9ceb867031c0d1b009b7a34f7f9579033de9fb1b7025";
    "cb2918c166fc0ce29240404ded678790ec1ed1081a44451b12db86af947409dd";
    "c6c2394c8738d718c9267fa44a604af1730c3eee5b49206eb0b3afe51fb9094f";
    "70e67c7bb6676134b17de565343d978e42a4d9c451081b52dd7305d39db8998f";
    "efe965a979e8ea0af2bc644f948b5d9ff44aa32c9ef16696e7c39b43bd34eccc";
    "0b87b79f91e5d8b08a2b987530d2661a815cb36051d1d9de643d9b77f8b0000d";
    "dfdea792658d9e37734453208d20a69207f91e45b38ba9fb35d6a855cbcaa859";
    "133936d4a4bdf0845e1a7f6eec060132a2b4f9ca028e891cc9d491f588cdf0a5";
    "9482749d4936c40304ce3449d92fd738a8bb2919dcfb63ef738a19e3a3b01d04";
    "ef91e8e4033ca1960bfd6b772d4992f661954e6285ec81c8abe8d89e2fc8a04a";
    "56d20b3f0c9a4610c8f555349d5a1acbd77f4ae92e3e1052562e1df97c1831bb";
    "6018db3f8d14f3b05f0ca750fd780750808dd09a23128cdd80a81251b2c5d519";
    "c802146d5788fb540fbf29d8ff485730ad10f4f13b78961c032e78691b582647";
    "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b";
    "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63";
    "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d";
    "b077ebeb8236a3aadb7f9f3fac9bf78df7e2ae0e8ca49d19f36914c66c2421ea";
    "52c10381fbaf5149f1c9a1df701baea05f74df32b80fa073943df58b61942ca2";
    "0cd53cd7093df4c301a67b8072a805e69508d9336a4a237f760dd989994fe7a2";
    "e8e5a95dd7d96e970954472cc2ed73edca2c48c710048b858c31996ce769a382";
    "8a670c7c037c3947aa18d2a2a717c1814a210f51ea22138c5bc43d5e09f63db7";
    "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076";
    "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd";
    "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0";
    "c24f29299c40d868cd7b1f5de6af00827b1a8454ed22256f8fad0a23651d8cb3";
    "978d3882da4335d999565e8f6a1ad3c67d05d13200305ca88b71c15a6e3e85c8";
    "73205e7093c6b53b335bcedba2eeea7ae1f9d2fa189709ff17c2c70b11c758b3";
    "0bc9554f0d0db189aedc00e391072ca3f9727d8b00b83fb701f0569066c01ffa";
    "d9c27945a73a9005b52f13594479b695ed1c4e96f764e62a19ea2e32af9b44e5";
    "b4d079c3da387729008e096f129032366ba3b1b13f07c57352afd083824d1de9";
    "9c6db2e3af616bebc9de6e90f9d1be29621157db8a0718aa2fe36d84fc451f87";
    "5289296269eaf1e62e77cff45f520309cb0a5d5ac7290e09be5714cb3602ffb2";
    "7bf9fa01704b1fc3a5aedb1cc286a29f2c1f380a6ef5c50f6e208e8e86b34b01";
    "56b127f7acfa1c21854e9f44179d88588f68be841c0dbaba735f65f94ba42207";
    "c30425ba5122022f0cb5f2b85fddfff45900e6e7f3bc4a064fa5bb771a3fc288";
    "2b5636493c358e72d577ce8afbeb79e6757c188a6fd31d029a2821e85542833b";
    "677f8cc982301dc75b9b988799379e69b7b676b117d886466692081cb33c0bc3";
    "9f419c1f641a930b61e7861f11c3dd716bc05991a072efb8b5bbef7436d19aa2";
    "b26499a826b8b46533c2d582cd456c0c3ef988e52c4f2af931b44baaf18de26c";
    "2cbbfa85a5052ffdf904ef426414e11201bf118874ace71e173822b1f037d38b";
    "5ee37ccff83bb4c9590fbb0ed39bbf48cabcbc5af621793c3bde3140c24e805d";
    "d148a9b0b08ada1301de8deaf952ed6d9ef8722928d57d2dc6104ed4eb3a1a47";
    "a73b761738961969a2dd7b875bdd38fcd0b1abea466bda5872f5bf1de8511d84";
    "210e074eadded47ed7cb727d9748bd14cafda623bc6947cc1e6302688da64d22";
    "a305fec92849b9c0765508d5010aff39ff3126e4ff4e10072199d8c02ce8defe";
    "ad5d8afb4c5cebec996abb96f7e9a1341c4b30db6d105dbb081d98454cfc7a6b";
    "efec7be79a6481cece434f8b463bc7800d10b8208c93b4fcc8c71f7f6701f71e";
    "61208160d58e9662571cda06cb9714095edf50393caee99cb75c5a26f488e19b";
    "2510bce9f3bed86186f4a98def953dad75bb13a89356426603a22f81c9ea5768";
    "25430c9c296d09c08f26d7efd74da726e8b705275e7a212a1fbf9d611c54c84f";
    "087ae647d38e728654b8d64960b8b59f31e46f98186f36e2e6a87e9ff6a6418d";
    "faced2ae498e7cce764c5f3c6a59610ec089b9d8ab67a2f81c1fca0b4403934e";
    "9d362998ae54695e7f832df638a353822f1283a49118f908703fdb0803509424";
    "d8c1f906be7970fa1b45890c5b45f94564ce77dd02bdb8cf0b869ca0afaa89e5";
    "d6c2773235f3785b4cf0f2b11861675cfd7f2a033ae69df9009cce1a787188b7";
    "15218c39030268e3258c9d4a8d3f284885a3784d0a0eb64d0e3ff99630457198";
    "c0744ab5ad80d3d6b460729c98230900a31d8c458ea5b462c79ed8a255e230a4";
    "717c23feab1f6a3a42269fc90b88799a1634028b67423f14b8602498bb952546";
    "c22e490daa445fb2fba44278c022df135310fd278cabca4ad7919eddcccd1dce";
    "e074ec684ae30cd662349906698baedc326789d9048ddd3dc1d43c6fcd5ab215";
    "52b5aad34021e9763bd2f719103edc8792bbf1250064eaaeab3b618cb31f1605";
    "e571c2a147c1eceec5dd8b6aeb1889aae50ea41b623d3026abc665acff5201f9";
    "23741790d156ecb2e1f43040faf528c96695945ff60b140c017b18137ca88888";
    "b9eeabc1150408b0798f41474ca2631a1e1d21d596db4420f3e23a2e05b3d9e3";
    "5d996879165390ac46419c0d499872248af518d37f368517d601e9404dd4e543";
    "49b9f17a7f3c6d94ae8b82ae9f94f367750c2c96b5b3e512c0c70cc818caf741";
    "189fbfd57dd81e95f3328c00adf69cc226c6c6081b21dc12f60ee1505d8d966c";
    "28ff771381251bcd442093a809a61095f53d6b83b7df9e59d142570bfc2a2835";
    "fe47c5a8d830476f3857f334a8a6d25f51270b9ab6f5d6dfaf5cb87b57c7aa91";
    "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45";
    "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e";
    "6f184b6619128e865ecb2b3ea96c03d461f0664d87689480988dbee53a449161";
    "81a8edf98294aab58cd1624aa4eca96e7f12de7de41005d08a5dc160a3c66ed6";
    "acb4c84cb17d887b3411a138a357b52be28f487418f65a0c5dc3b11a1337ec6f";
    "0d6a9d84e67cb35fb772c46763b46b72e229b5f76663c5ed53343424775ad100";
    "af7b162f08dae5e87b4008e21010c646a576e3372d6814edd32f9d01949deca9";
    "e96230c1485dd2e36f02f30932b0e2acf725283090cfdd8c58fce6bf523edd26";
    "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe";
    "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656";
    "614571410beab3df68d50132a341d338575653da8374c630441bbe380b9b3136";
    "d728ad2179214f0cb2b01d264d8b7fb26893e310599d5d419c7a9f92ca293664";
    "893ef3f88cf4382f5d660f694b6b4213960adffa842aca38988fcbc7ea5b58dc";
    "2a4c07c863a78da189481963834179ff348b51630ccf098b923d871ff748403d";
    "5ef8fed0986749855f87f2125e13fe813d9c1428ef0ef36bf49395b53d14c85a";
    "5aa67f561ca036a72db939b4d4b14975505f08fc1564036822a1639a5b09dfb8";
    "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d";
    "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356";
    "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519";
    "1c7c3b5eee94d4fa8b41754b89153e50491838d0d3e49b0273d6f12cae12e387";
  |]

(* The first 8 hex digits of [digest_hex] after [pattern fill] then
   [feed_int n], for fill = 0 .. 63: eight fills a line. *)
let golden_feed_int =
  [
    ( 0,
      [
        "5feceb66 530f6e0f 9bc279a4 bbc9e24a c07a6669 15367d68 8bac2109 ce96f36b";
        "f9de7012 929ba7a8 3a70a042 5088e6d2 ada540e6 f3200260 f5c6a274 73193d79";
        "df3dc659 df7b42b9 ad48b7b8 5a46b8da 301d0a33 651484d2 13d5dbf4 29e56da3";
        "cd711de7 672ce020 f3625722 58316253 b09581f0 fbc6e637 7b77529b 4784187c";
        "3ba07f18 9c6eba89 1013bdaf 5b6c0874 f80e0829 01606076 4a2689d1 4a86da70";
        "e4a0c2d4 a47df16c 28939c16 169ae9e5 d8dd6546 dc512896 ac841b09 52941ddc";
        "22d0dc42 978987e0 71453b9d 6d4e6a03 0efc4a2c 97f203cc c08b74d8 1cc20714";
        "698a0db8 29dcc378 c7ce3a69 5f865f1e 20d77640 cfaa2289 1aa3c041 d2b88649";
      ] );
    ( 7,
      [
        "7902699b 8598993b e310e84e d5a21d0e 1f822f29 053b9b12 7efebcf9 cb2b9b73";
        "eec826fb f96971bc 8cfa1c33 badfa270 fcbc60b1 767ce36c 3d4dae67 7b4e7e09";
        "c9a9c146 2828e8ab d184b7b2 f34dfb51 f11714a0 a536d61e 28d9ca74 decafd58";
        "c7bf8d09 45bde7d9 a9295bf6 9ac527d0 fdc8dd29 42c654de e9cebcdd 576107a4";
        "f24814af 7f9ef559 99e90289 e13178f8 27cc52b5 d417fcb4 d3afc5af f567a98b";
        "92d29181 85cc5d95 b56c7aab f912b5c0 e3cfd072 d91febaf 84c41822 64c8d0e4";
        "ec7f4c07 5de188d7 9b5e1b69 d77c8f89 33cae07d c92cf81c bf646cc4 fa8a226f";
        "dc3764b4 86495558 68bc7b08 ac774073 6a6131c3 6a35e9d7 e475e340 950ec716";
      ] );
    ( 10,
      [
        "4a44dc15 0584a249 1406cbaf d10d1b5e e77c047c 26831ff5 19b36e39 065630a0";
        "63e3251d e71fb9f8 ebd0f32d 8e687297 cbc7d927 b6e2dfe3 acf4c0bc 800a13e0";
        "88b21f99 07d7503b 394decd1 79a89d22 020f0a95 18080382 c6fc00bf 32f9373f";
        "11625923 5216cdae eea15053 c0e3f9a5 1d2bdb59 1f7aaf15 f0f83995 21dce0cc";
        "ca1ae7e6 34e6c412 9b25460b 4a83a78e d1a9d6d5 497afbc9 494cf5fa cc11382b";
        "ccd751fe bd8d8949 b057e0a0 12d600b6 7c63660f 031019d5 62c94002 42492378";
        "e81a636e 00af114a bd94e2ee 23131801 32b3415a 3dcb9912 a4f72d0e fa672fb5";
        "4d0d09ab 82ce008e 2e8b78a0 f9096b97 72276c75 96a19898 d0e01c9b d8abfe21";
      ] );
    ( 99999,
      [
        "fd5f56b4 15f999d3 bbaccbf6 7f0accc3 f3206897 75feb68c 4d66afcd fecd2699";
        "7057c123 68b9225d a2d01ca3 a8a5a80e 5f9c33a9 77861c88 9cf070b0 2103bd7a";
        "d0edc6ab 1e579dc5 f057db05 52e12bf9 dfff654b be420068 8eb0d830 0b8a13e1";
        "3d4eeb65 4b0a973d ba025d7c bbe19dc3 15088fde 6978c73b 1d31d46f 6e9f58fb";
        "62c94c5c 1bc47a59 4ebef95a ceddbe5b 7e79691b 1a2c36d4 dcb79c97 bde26277";
        "7f3b3e10 abb2801b d5c7a6d5 678bf51f bd5814b9 fd6d2420 2bba13f2 5b84472a";
        "7bc61a47 1781b446 4813293a 9c70d07d 56922e37 0ed8181b 319dadcd 37f3522b";
        "c7a3538b 411de1cd e8cf4ce1 d882994c 8aa6dc93 f5853778 9c1dc11b b8383bd0";
      ] );
    ( max_int,
      [
        "a7dcb11f 0b3fe930 66a33f04 5c955d1e 4d81fe3d 8f5a9ede 7e84b2b0 8e5bb3ae";
        "76b5658f 9f8828a7 36d213a7 1aeb4618 0589f96a 7473532d a093fd2d df1502fe";
        "f87d1412 5adfc496 81c9750d a4964347 c780d25c 52bbc40f f3492e1f 9fa50608";
        "f2b9555f 6bcda39d e285821b b708b6f5 1552754b 7285e0a2 04c590ae 7bf2691e";
        "7a94883c 08c46307 0b3c0ada e6e89e40 5677236d fc59b34b ca6ecfcb d9bc50e6";
        "002986f1 1ca192e2 a60352b7 b1029ec1 5b888249 adf86557 0a7d68d7 cb55c39c";
        "5a2852e4 8ee6b2bf ad01a52a 1d6968a9 ea94ad23 6f5522ae bdfb2c22 418ad47d";
        "150610d9 4490605b a366fe8b 6c63f02b 8afbcea2 3b7286c5 d7d9947d fdaeff58";
      ] );
    ( min_int,
      [
        "2e896867 38a73606 73815bb0 cacd3158 6a2c3bf0 f559b31c d0923c4b dc8ba502";
        "d500cff3 bf2ee95e 1e476bec 3b48fddf 16104631 a30d53ad 72efd69f 8b6800b1";
        "96467d3f 11f02a18 f2af1ea8 1f6f452d 7b07a565 cce7ab88 f527e12f eefaffeb";
        "c58d0d6d 103d00bf 6088cbf2 7ddc74eb 9efa03dd 5135430d 1c3a3b85 08e23945";
        "ac46bc4b a68da8db a6d3d244 61263548 e3b1db8c 7ea7bd6f 18ce24d8 d75aaf02";
        "df5358d8 2c163881 6c7f9a7d 593d8c6a 48565198 58f912b3 de319543 2886ae15";
        "5b6a8af8 2271418f 7d9c8587 bac694fd e991a902 7d364257 045a7ccc d103abde";
        "c658e78f 8f46daea db3524dc e7198157 52231913 4888f46b 1228bfa5 8cc8b3a7";
      ] );
  ]

let test_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "digest of %d bytes" (String.length input))
        expected (Sha256.digest_hex input))
    vectors

let test_golden_lengths () =
  Array.iteri
    (fun len expected ->
      Alcotest.(check string)
        (Printf.sprintf "digest of pattern %d" len)
        expected
        (Sha256.digest_hex (pattern len)))
    golden_by_length

let test_golden_feed_int () =
  List.iter
    (fun (n, rows) ->
      let expected = List.concat_map (String.split_on_char ' ') rows in
      Alcotest.(check int) "64 fills" 64 (List.length expected);
      List.iteri
        (fun fill prefix ->
          let ctx = Sha256.init () in
          Sha256.feed ctx (pattern fill);
          Sha256.feed_int ctx n;
          Alcotest.(check string)
            (Printf.sprintf "feed_int %d at fill %d" n fill)
            prefix
            (String.sub (Sha256.hex (Sha256.finalize ctx)) 0 8))
        expected)
    golden_feed_int

let test_incremental_equals_oneshot () =
  let msg = "hello, chained BFT world! " ^ String.make 200 'x' in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 10);
  Sha256.feed ctx (String.sub msg 10 1);
  Sha256.feed ctx (String.sub msg 11 (String.length msg - 11));
  Alcotest.(check string) "same digest" (Sha256.digest msg) (Sha256.finalize ctx)

let test_feed_sub () =
  let msg = "0123456789" in
  let ctx = Sha256.init () in
  Sha256.feed_sub ctx msg ~pos:2 ~len:5;
  Alcotest.(check string) "substring digest" (Sha256.digest "23456")
    (Sha256.finalize ctx)

let test_feed_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Sha256.feed_sub: range out of bounds") (fun () ->
      Sha256.feed_sub ctx "abc" ~pos:1 ~len:5)

let test_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundaries. *)
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (i mod 256)) in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-by-byte" len)
        (Sha256.digest_hex msg)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_size () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "x"))

let test_hex () =
  Alcotest.(check string) "hex" "00ff10" (Sha256.hex "\x00\xff\x10")

(* [feed_int] and [feed_char] must absorb exactly the bytes of the string
   they stand for, whatever the buffer fill they start at: digits that fit
   the block and digits that straddle its end take different paths. *)
let test_feed_int_and_char () =
  List.iter
    (fun n ->
      for fill = 0 to 63 do
        let prefix = String.make fill 'p' in
        let a = Sha256.init () and b = Sha256.init () in
        Sha256.feed a prefix;
        Sha256.feed b prefix;
        Sha256.feed_int a n;
        Sha256.feed b (string_of_int n);
        Sha256.feed_char a ',';
        Sha256.feed b ",";
        Alcotest.(check string)
          (Printf.sprintf "%d at fill %d" n fill)
          (Sha256.hex (Sha256.finalize b))
          (Sha256.hex (Sha256.finalize a))
      done)
    [ 0; 9; 10; -1; -10; max_int; min_int ]

(* [feed_fields] must absorb exactly the record's bytes at every fill:
   records that end inside the block, that cross into the next one, that
   fill it exactly, and payloads too long to write at once. *)
let test_feed_fields () =
  List.iter
    (fun (a, b, s) ->
      for fill = 0 to 63 do
        let prefix = pattern fill in
        let ctx = Sha256.init () in
        Sha256.feed ctx prefix;
        Sha256.feed_fields ctx a ':' b '|' s ',';
        Sha256.feed_fields ctx b '/' a '=' s ';';
        let expected =
          Printf.sprintf "%s%d:%d|%s,%d/%d=%s;" prefix a b s b a s
        in
        Alcotest.(check string)
          (Printf.sprintf "%d %d %d-byte payload at fill %d" a b
             (String.length s) fill)
          (Sha256.digest_hex expected)
          (Sha256.hex (Sha256.finalize ctx))
      done)
    [
      (0, 0, "");
      (3, 123456, "");
      (-1, max_int, "");
      (min_int, min_int, "");
      (max_int, min_int, String.make 21 'x');
      (min_int, -7, String.make 22 'y');
      (42, 7, pattern 64);
      (-5, 0, pattern 130);
    ]

(* The portable compression is the reference: it must reproduce the FIPS
   180-4 vectors and the golden digests whatever the CPU. *)
let portable_digest s =
  let ctx = Sha256.init_portable () in
  Sha256.feed ctx s;
  Sha256.finalize ctx

let test_portable_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "portable digest of %d bytes" (String.length input))
        expected
        (Sha256.hex (portable_digest input)))
    vectors;
  Array.iteri
    (fun len expected ->
      Alcotest.(check string)
        (Printf.sprintf "portable digest of pattern %d" len)
        expected
        (Sha256.hex (portable_digest (pattern len))))
    golden_by_length

(* On a CPU with SHA-256 instructions, [init]'s contexts compress with
   them; they must agree with the portable compression on random
   messages of every length from 0 to 300 bytes (every padding case and
   up to five blocks) and on the FIPS vectors. *)
let test_instructions_agree () =
  if not Sha256.accelerated then Alcotest.skip ();
  let rng = Random.State.make [| 180; 4 |] in
  for len = 0 to 300 do
    let msg = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    Alcotest.(check string)
      (Printf.sprintf "random %d bytes" len)
      (Sha256.hex (portable_digest msg))
      (Sha256.digest_hex msg)
  done;
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "instruction digest of %d bytes" (String.length input))
        expected (Sha256.digest_hex input))
    vectors

(* Absorbing must not allocate: every flat tx root feeds each tx through
   these. *)
let test_no_alloc () =
  let ctx = Sha256.init () in
  let block = String.make 64 'b' in
  Helpers.check_no_alloc "Sha256.feed of 64 bytes" (fun _ -> Sha256.feed ctx block);
  Helpers.check_no_alloc "Sha256.feed_int" (fun i ->
      Sha256.feed_int ctx ((i * 7919) - 400_000));
  Helpers.check_no_alloc "Sha256.feed_int max_int" (fun _ ->
      Sha256.feed_int ctx max_int);
  Helpers.check_no_alloc "Sha256.feed_char" (fun _ -> Sha256.feed_char ctx 'c');
  Helpers.check_no_alloc "Sha256.feed_fields" (fun i ->
      Sha256.feed_fields ctx (i mod 7) ':' (1000 + i) '|' "" ',');
  Helpers.check_no_alloc "Sha256.feed_fields, long payload" (fun i ->
      Sha256.feed_fields ctx i ':' max_int '|' block ',')

let incremental_prop =
  let open QCheck in
  let gen =
    Gen.pair
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 300))
      (Gen.int_range 0 300)
  in
  Test.make ~name:"random split incremental = one-shot" ~count:200
    (make ~print:(fun (s, i) -> Printf.sprintf "%d bytes, split %d" (String.length s) i) gen)
    (fun (s, split) ->
      let split = if String.length s = 0 then 0 else split mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 split);
      Sha256.feed ctx (String.sub s split (String.length s - split));
      Sha256.finalize ctx = Sha256.digest s)

let collision_resistance_smoke =
  let open QCheck in
  let gen = Gen.pair (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64))
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64)) in
  Test.make ~name:"distinct inputs hash differently (smoke)" ~count:300
    (make ~print:(fun (a, b) -> Printf.sprintf "%S vs %S" a b) gen)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_vectors;
    Alcotest.test_case "golden digests by length" `Quick test_golden_lengths;
    Alcotest.test_case "golden feed_int digests" `Quick test_golden_feed_int;
    Alcotest.test_case "incremental = one-shot" `Quick test_incremental_equals_oneshot;
    Alcotest.test_case "feed_sub" `Quick test_feed_sub;
    Alcotest.test_case "feed_sub bounds" `Quick test_feed_sub_bounds;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "digest size" `Quick test_digest_size;
    Alcotest.test_case "hex" `Quick test_hex;
    Alcotest.test_case "feed_int/feed_char = feed" `Quick test_feed_int_and_char;
    Alcotest.test_case "feed_fields = feed" `Quick test_feed_fields;
    Alcotest.test_case "portable compression vectors" `Quick test_portable_vectors;
    Alcotest.test_case "instruction and portable compressions agree" `Quick
      test_instructions_agree;
    Alcotest.test_case "absorbing allocates nothing" `Quick test_no_alloc;
    QCheck_alcotest.to_alcotest incremental_prop;
    QCheck_alcotest.to_alcotest collision_resistance_smoke;
  ]
