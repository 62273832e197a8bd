module alohadb/bench

go 1.23

require alohadb v0.0.0

replace alohadb => ../
