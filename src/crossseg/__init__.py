"""Cross-domain Chinese word segmentation toolkit.

Three stages: mine domain words from raw text with statistical scores,
distantly annotate the target domain by fusing lexicon matches with a
source-trained segmenter, and train a dual-encoder adversarial GCNN-CRF
tagger on both domains.
"""
from .annotator import (AnnotatedSentence, build_target_dataset,
                        distant_annotate, forward_max_match,
                        load_provenance, save_provenance)
from .corpus import (LabeledDataset, dataset_from_segmented, is_well_formed,
                     load_raw, load_segmented, oov_rate, save_segmented,
                     tags_to_words, vocabulary_of, words_to_tags)
from .errors import AlignmentError, DataError, DecodeError, StaleGraphError
from .evaluate import EvalReport, prf, report_json, write_report
from .gradcheck import GradCheckResult, run_suite
from .miner import (CandidateScore, MinerConfig, NGramStats, WordCollection,
                    collect_stats, lexicon_to_tsv, load_lexicon, mine,
                    save_lexicon, score_candidates)
from .model_io import load_container, save_container
from .train import (DaatModel, Segmenter, TrainConfig, adversarial_train,
                    confusion_loss, discriminator_loss, load_config,
                    load_model, tagging_losses, train_base)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "AnnotatedSentence", "CandidateScore", "DaatModel",
    "DataError", "DecodeError", "EvalReport", "GradCheckResult",
    "LabeledDataset", "MinerConfig", "NGramStats", "Segmenter",
    "StaleGraphError", "TrainConfig", "WordCollection",
    "adversarial_train", "build_target_dataset", "collect_stats",
    "confusion_loss", "dataset_from_segmented", "discriminator_loss",
    "distant_annotate", "forward_max_match", "is_well_formed",
    "lexicon_to_tsv", "load_config", "load_container", "load_lexicon",
    "load_model", "load_provenance", "load_raw", "load_segmented", "mine",
    "oov_rate", "prf", "report_json", "run_suite", "save_container",
    "save_lexicon", "save_provenance", "save_segmented",
    "score_candidates", "tagging_losses", "tags_to_words", "train_base",
    "vocabulary_of", "words_to_tags", "write_report",
]
